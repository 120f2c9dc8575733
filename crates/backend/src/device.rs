//! Analytic device models (Table 3 backends + Appendix C roofline).
//!
//! A [`DeviceSpec`] converts an execution [`Profile`] into a latency
//! estimate:
//!
//! ```text
//! total = launches·launch_overhead            (kernel-call overheads, §7.2)
//!       + barriers·barrier_cost               (global synchronization, §7.4)
//!       + memcpys                              (vendor-library contiguity, §7.2)
//!       + max over roofline terms per wave:
//!           compute:  flops / (peak · utilization(width))
//!           memory:   bytes / bandwidth
//! ```
//!
//! Utilization models the paper's observation that without dynamic
//! batching a device cannot exploit parallelism across nodes: a wave
//! processing `width` nodes engages `width · warp` lanes out of
//! `parallel_lanes`.

use crate::profile::Profile;

/// Lanes one node's computation keeps busy (one warp on the GPU; one
/// SIMD-threaded core's worth on CPUs).
const NODE_LANES: f64 = 32.0;

/// An execution target for the analytic latency model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name (Table 3 short name).
    pub name: String,
    /// Whether this is a GPU-style device (manually managed scratchpad,
    /// expensive kernel launches — §7.3's fusion argument).
    pub is_gpu: bool,
    /// Seconds per kernel launch (device side).
    pub launch_overhead_s: f64,
    /// Seconds of host API time per launch or copy call ("CPU CUDA API
    /// time" in Table 6).
    pub host_api_call_s: f64,
    /// Global-memory bandwidth in bytes per second.
    pub mem_bandwidth: f64,
    /// Peak single-precision floating-point throughput (flop/s).
    pub peak_flops: f64,
    /// Cost of a device-wide barrier in seconds (lock-based; the lock-free
    /// variant used by GRNN is cheaper — Fig. 9).
    pub global_barrier_s: f64,
    /// Cost of a block-local synchronization in seconds.
    pub block_sync_s: f64,
    /// Concurrent scalar lanes (utilization denominator).
    pub parallel_lanes: f64,
    /// On-chip bytes usable for model persistence (registers + scratchpad
    /// for GPUs, private caches for CPUs — Appendix D's budget).
    pub onchip_bytes: u64,
}

impl DeviceSpec {
    /// An Nvidia-V100-like GPU (Table 3 "GPU").
    pub fn v100() -> Self {
        DeviceSpec {
            name: "GPU".to_string(),
            is_gpu: true,
            launch_overhead_s: 5.0e-6,
            host_api_call_s: 8.0e-6,
            mem_bandwidth: 900.0e9,
            peak_flops: 14.0e12,
            global_barrier_s: 2.5e-6,
            block_sync_s: 0.2e-6,
            parallel_lanes: 5120.0,
            onchip_bytes: 1_200_000,
        }
    }

    /// An Intel-CascadeLake-like 8-core/16-thread CPU (Table 3 "Intel").
    pub fn intel_cascadelake() -> Self {
        DeviceSpec {
            name: "Intel".to_string(),
            is_gpu: false,
            launch_overhead_s: 0.4e-6,
            host_api_call_s: 0.1e-6,
            mem_bandwidth: 80.0e9,
            peak_flops: 1.2e12,
            global_barrier_s: 0.3e-6,
            block_sync_s: 0.05e-6,
            parallel_lanes: 256.0,
            onchip_bytes: 16_000_000,
        }
    }

    /// An ARM-Graviton2-like 8-core CPU (Table 3 "ARM").
    pub fn arm_graviton2() -> Self {
        DeviceSpec {
            name: "ARM".to_string(),
            is_gpu: false,
            launch_overhead_s: 0.5e-6,
            host_api_call_s: 0.1e-6,
            mem_bandwidth: 40.0e9,
            peak_flops: 0.4e12,
            global_barrier_s: 0.4e-6,
            block_sync_s: 0.08e-6,
            parallel_lanes: 128.0,
            onchip_bytes: 8_000_000,
        }
    }

    /// A V100 whose global barrier uses the lock-free implementation of
    /// Xiao & Feng (2010), as GRNN does (Fig. 9).
    pub fn v100_lockfree_barrier() -> Self {
        DeviceSpec {
            global_barrier_s: 1.0e-6,
            name: "GPU (lock-free barrier)".to_string(),
            ..Self::v100()
        }
    }

    /// Fraction of the device kept busy by a wave `width` nodes wide.
    pub(crate) fn utilization(&self, width: u64) -> f64 {
        ((width as f64 * NODE_LANES) / self.parallel_lanes).clamp(1.0 / self.parallel_lanes, 1.0)
    }

    /// Estimates the latency of a profiled run.
    pub fn latency(&self, profile: &Profile) -> LatencyEstimate {
        let launch_s = profile.launches as f64 * self.launch_overhead_s;
        let host_api_s = profile.host_api_calls as f64 * self.host_api_call_s;
        let barrier_s = profile.barriers_global as f64 * self.global_barrier_s
            + profile.barriers_block as f64 * self.block_sync_s;
        // Roofline applied per wave: each wave is limited by the slower of
        // its compute (scaled by utilization) and its memory traffic.
        // Cache reuse credits (unrolling) scale wave traffic down.
        let mut accounted_flops = 0u64;
        let mut accounted_bytes = 0u64;
        let wave_bytes_total: u64 = profile.waves.iter().map(|w| w.bytes).sum();
        let reuse_factor = if wave_bytes_total > 0 {
            1.0 - (profile.cache_reuse_bytes.min(wave_bytes_total) as f64 / wave_bytes_total as f64)
        } else {
            1.0
        };
        let mut compute_s = 0.0;
        let mut mem_s = 0.0;
        let mut roofline_s = 0.0;
        for w in &profile.waves {
            let c = w.flops as f64 / (self.peak_flops * self.utilization(w.width));
            let m = w.bytes as f64 * reuse_factor / self.mem_bandwidth;
            compute_s += c;
            mem_s += m;
            // Overlapping memory with compute requires occupancy: a narrow
            // wave has no independent work to hide its loads behind, so it
            // pays close to the serial sum. This is the regime persistent
            // RNNs target — at small batch the per-step weight reload is
            // exposed latency (Diamos et al. 2016).
            let overlap = self.utilization(w.width);
            roofline_s += c.max(m) + (1.0 - overlap) * c.min(m);
            accounted_flops += w.flops;
            accounted_bytes += w.bytes;
        }
        // Work outside any recorded wave: compute at full utilization,
        // residual traffic at full bandwidth.
        let resid_c = profile.flops.saturating_sub(accounted_flops) as f64 / self.peak_flops;
        let resid_m = profile.total_global_bytes().saturating_sub(accounted_bytes) as f64
            / self.mem_bandwidth;
        compute_s += resid_c;
        mem_s += resid_m;
        roofline_s += resid_c.max(resid_m);
        let memcpy_s = profile.memcpy_bytes as f64 / self.mem_bandwidth;
        // Host overheads are measured wall-clock (graph construction,
        // batching, linearization) and added serially, as the paper does.
        let host_s = profile.host_overhead().as_secs_f64() + host_api_s;
        let device_s = launch_s + barrier_s + roofline_s + memcpy_s;
        LatencyEstimate {
            total_s: device_s + host_s,
            launch_s,
            barrier_s,
            compute_s,
            mem_s,
            memcpy_s,
            host_s,
        }
    }
}

/// A latency estimate with its breakdown (Table 6 columns).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyEstimate {
    /// End-to-end inference latency in seconds.
    pub total_s: f64,
    /// Kernel-launch overhead.
    pub launch_s: f64,
    /// Synchronization-barrier cost.
    pub barrier_s: f64,
    /// Compute roofline term.
    pub compute_s: f64,
    /// Memory roofline term.
    pub mem_s: f64,
    /// Contiguity memory-copy cost.
    pub memcpy_s: f64,
    /// Host-side overhead (graph construction, batching, linearization,
    /// API calls).
    pub host_s: f64,
}

impl LatencyEstimate {
    /// Latency in milliseconds (the unit the paper's tables use).
    pub fn total_ms(&self) -> f64 {
        self.total_s * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WaveStat;

    #[test]
    fn presets_are_ordered_sensibly() {
        let gpu = DeviceSpec::v100();
        let intel = DeviceSpec::intel_cascadelake();
        let arm = DeviceSpec::arm_graviton2();
        assert!(gpu.peak_flops > intel.peak_flops && intel.peak_flops > arm.peak_flops);
        assert!(gpu.mem_bandwidth > intel.mem_bandwidth);
        assert!(
            gpu.launch_overhead_s > intel.launch_overhead_s,
            "GPU launches are expensive"
        );
    }

    #[test]
    fn utilization_saturates() {
        let gpu = DeviceSpec::v100();
        assert!(gpu.utilization(1) < 0.01);
        assert_eq!(gpu.utilization(1_000_000), 1.0);
        assert!(gpu.utilization(10) > gpu.utilization(1));
    }

    #[test]
    fn launches_dominate_small_work() {
        let gpu = DeviceSpec::v100();
        let many_launches = Profile {
            launches: 1000,
            flops: 1000,
            ..Profile::default()
        };
        let one_launch = Profile {
            launches: 1,
            flops: 1000,
            ..Profile::default()
        };
        let a = gpu.latency(&many_launches);
        let b = gpu.latency(&one_launch);
        assert!(a.total_s > 100.0 * b.total_s);
    }

    #[test]
    fn wider_waves_run_faster() {
        let gpu = DeviceSpec::v100();
        let narrow = Profile {
            flops: 1_000_000,
            waves: vec![WaveStat {
                flops: 1_000_000,
                width: 1,
                bytes: 0,
            }],
            ..Profile::default()
        };
        let wide = Profile {
            flops: 1_000_000,
            waves: vec![WaveStat {
                flops: 1_000_000,
                width: 128,
                bytes: 0,
            }],
            ..Profile::default()
        };
        assert!(gpu.latency(&narrow).compute_s > 10.0 * gpu.latency(&wide).compute_s);
    }

    #[test]
    fn lock_free_barrier_is_cheaper() {
        let locked = DeviceSpec::v100();
        let free = DeviceSpec::v100_lockfree_barrier();
        let p = Profile {
            barriers_global: 100,
            ..Profile::default()
        };
        assert!(free.latency(&p).barrier_s < locked.latency(&p).barrier_s);
    }

    #[test]
    fn roofline_takes_max_of_compute_and_memory() {
        let gpu = DeviceSpec::v100();
        let mem_bound = Profile {
            flops: 10,
            global_bytes_read: 9_000_000_000,
            ..Profile::default()
        };
        let l = gpu.latency(&mem_bound);
        assert!(l.total_s >= l.mem_s);
        assert!((l.mem_s - 0.01).abs() < 1e-6);
    }
}
