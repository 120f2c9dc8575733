//! Deterministic fault injection for the serving front.
//!
//! Builds [`FaultHook`]s for [`cortex_backend::exec::Engine::set_fault_hook`] /
//! [`Batcher::set_fault_hook`](crate::Batcher::set_fault_hook) from the
//! in-repo deterministic RNG: same seed, same request stream → the same
//! faults at the same sites, every run, on every platform. Three shapes:
//!
//! * **Random pressure** ([`FaultInjector::with_rates`]): every
//!   instrumented site draws against `p_err`/`p_panic` — the
//!   model-based suite's background noise.
//! * **Targeted poisoning** ([`FaultInjector::poison_nodes`]): fault
//!   only the request with a given node count, at every one of its
//!   launches — a *sticky* culprit that still faults when chunk
//!   bisection re-runs it solo, which is exactly what the isolation
//!   machinery must prove it can contain.
//! * **Plan-path outage** ([`FaultInjector::always`], typically at
//!   [`FaultSite::Launch`]): every site exists only in the pc (ExecPlan)
//!   runtime, so an always-faulting hook emulates a broken lowered plan
//!   whose `interp` oracle still works — the circuit-breaker demotion
//!   scenario.
//!
//! Injected panics are real unwinds; [`silence_injected_panics`]
//! installs a process-wide panic-hook filter (once) that keeps them out
//! of test output while leaving genuine panics loud.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Once;

use cortex_backend::exec::{FaultAction, FaultHook, FaultSite, InjectedFault, InjectedPanic};
use cortex_rng::Rng;

/// Live counters of a running injector, shared with the hook.
#[derive(Debug, Clone, Default)]
pub struct FaultHandle {
    consulted: Rc<Cell<u64>>,
    fired: Rc<Cell<u64>>,
}

impl FaultHandle {
    /// How many instrumented sites the hook has been consulted at.
    pub fn consulted(&self) -> u64 {
        self.consulted.get()
    }

    /// How many faults the hook has raised.
    pub fn fired(&self) -> u64 {
        self.fired.get()
    }
}

/// Which sites an injector applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteFilter {
    All,
    LaunchOnly,
    GemmOnly,
    /// Launches of the one request with this node count.
    NodesExactly(usize),
}

impl SiteFilter {
    fn matches(self, site: FaultSite) -> bool {
        match (self, site) {
            (SiteFilter::All, _) => true,
            (SiteFilter::LaunchOnly, FaultSite::Launch { .. }) => true,
            (SiteFilter::GemmOnly, FaultSite::Gemm { .. }) => true,
            (SiteFilter::NodesExactly(n), FaultSite::Launch { nodes }) => nodes == n,
            _ => false,
        }
    }
}

/// A deterministic fault plan: seeded RNG, per-site fault rates, an
/// optional site filter, and an optional budget of fires.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    rng: Rng,
    p_err: f64,
    p_panic: f64,
    filter: SiteFilter,
    budget: Option<u64>,
}

impl FaultInjector {
    /// An injector that never fires (add rates or a target).
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            rng: Rng::new(seed),
            p_err: 0.0,
            p_panic: 0.0,
            filter: SiteFilter::All,
            budget: None,
        }
    }

    /// Random pressure: each matching site independently raises a typed
    /// error with probability `p_err`, a panic with `p_panic`.
    pub fn with_rates(mut self, p_err: f64, p_panic: f64) -> Self {
        self.p_err = p_err;
        self.p_panic = p_panic;
        self
    }

    /// Deterministic outage: every matching site raises `action`.
    pub fn always(mut self, action: FaultAction) -> Self {
        match action {
            FaultAction::Err => {
                self.p_err = 1.0;
                self.p_panic = 0.0;
            }
            FaultAction::Panic => {
                self.p_err = 0.0;
                self.p_panic = 1.0;
            }
        }
        self
    }

    /// Restrict to kernel-launch sites (pc runtime only).
    pub fn launches_only(mut self) -> Self {
        self.filter = SiteFilter::LaunchOnly;
        self
    }

    /// Restrict to super-wave flush sites (pc runtime only, a whole lane
    /// group).
    pub fn gemms_only(mut self) -> Self {
        self.filter = SiteFilter::GemmOnly;
        self
    }

    /// Sticky culprit: fault every launch of the request whose input has
    /// exactly `nodes` nodes (give the poisoned request a unique size).
    pub fn poison_nodes(mut self, nodes: usize) -> Self {
        self.filter = SiteFilter::NodesExactly(nodes);
        self
    }

    /// Stop after `n` fires (the fault "heals" afterwards — transient
    /// faults for retry/bisection tests).
    pub fn budget(mut self, n: u64) -> Self {
        self.budget = Some(n);
        self
    }

    /// Splits this fault plan into `n` independent per-shard hooks with
    /// deterministically derived seeds: each shard of a
    /// [`Router`](crate::Router) gets the same rates/filter/budget but
    /// its own fault stream, so shard A's traffic never perturbs the
    /// faults shard B sees — the router-level model-based suite depends
    /// on that isolation for reproducibility across placements.
    pub fn into_shard_hooks(self, n: usize) -> Vec<(FaultHook, FaultHandle)> {
        (0..n)
            .map(|i| {
                let derived = self
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                FaultInjector {
                    rng: Rng::new(derived),
                    ..self.clone()
                }
                .into_hook()
            })
            .collect()
    }

    /// Builds the hook plus a counter handle the test keeps.
    pub fn into_hook(self) -> (FaultHook, FaultHandle) {
        let handle = FaultHandle::default();
        let counters = handle.clone();
        let FaultInjector {
            seed: _,
            mut rng,
            p_err,
            p_panic,
            filter,
            mut budget,
        } = self;
        let hook: FaultHook = Rc::new(std::cell::RefCell::new(move |site: FaultSite| {
            if !filter.matches(site) {
                return None;
            }
            counters.consulted.set(counters.consulted.get() + 1);
            if budget == Some(0) {
                return None;
            }
            // One draw per consulted site keeps the stream aligned with
            // the site sequence regardless of what fires.
            let draw = rng.f64();
            let action = if draw < p_panic {
                Some(FaultAction::Panic)
            } else if draw < p_panic + p_err {
                Some(FaultAction::Err)
            } else {
                None
            };
            if action.is_some() {
                counters.fired.set(counters.fired.get() + 1);
                if let Some(b) = &mut budget {
                    *b -= 1;
                }
            }
            action
        }));
        (hook, handle)
    }
}

/// Installs (once, process-wide) a panic-hook filter that suppresses the
/// default "thread panicked" report for *injected* faults — their
/// unwinds are expected and caught — while forwarding every genuine
/// panic to the previous hook unchanged. Call from any test that injects
/// [`FaultAction::Panic`].
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected =
                info.payload().is::<InjectedPanic>() || info.payload().is::<InjectedFault>();
            if !injected {
                prev(info);
            }
        }));
    });
}
