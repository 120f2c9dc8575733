//! Batched wavefront execution: the gather/GEMM phase.
//!
//! Runs each stacking group of a planned wave as one packed tile GEMM
//! (or registers its rows into a pending super-wave GEMM during
//! `execute_many`), or a per-node product group as one small GEMM per
//! node, and activates the group's member sites so `Sum` evaluations —
//! interpreted, bulk, or fused — serve from the result matrices with
//! the scalar path's exact accounting. Each gathered row
//! resolves through its site's compiled address program
//! ([`RowOperand`], built at engine build): no row walks an index tree
//! or allocates. Everything here — weight packing, the row gather, site
//! activation — is shared verbatim by the pc-based plan runtime and the
//! `interp: true` oracle; only the per-element `eval_dot` path walks
//! the operands instead (`resolve_product`).

use std::sync::{Arc, OnceLock};

use cortex_tensor::kernels::{self, PackedB};

use super::address::{Resolved, RowOperand};
use super::checked_assert;
use super::interp::Interp;
use super::stopwatch::Stopwatch;
use crate::wave::{GroupKind, SiteGroup, SumSite, SuperKey, SuperWaveAcc, WavePlan};

/// Entry `i` of a cache indexed by group id, grown on first use.
fn entry<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// Reusable buffers for one stacking group. All of them are
/// engine-lifetime scratch: they round-trip through [`ActiveGroup`] and
/// back into the cache after each wave, so steady-state waves allocate
/// nothing (the `RowMeta` entries are recycled in place, `tensors`
/// capacity included).
#[derive(Default)]
pub(crate) struct GroupBufs {
    /// Packed operand rows, `[rows][k]`.
    pub(crate) rows: Vec<f32>,
    /// GEMM output, `[rows][cols]`.
    pub(crate) out: Vec<f32>,
    /// Per-row accounting metadata.
    pub(crate) meta: Vec<RowMeta>,
    /// A per-node product's `Y` panel, repacked node after node.
    pub(crate) panel: PackedB,
}

/// Accounting metadata for one packed row, mirroring exactly what the
/// scalar `eval_dot` would have recorded per element.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowMeta {
    /// A guard failed (or `k == 0`): the scalar path returns `0.0`
    /// *before* any accounting, so the memo does the same.
    pub(crate) zero: bool,
    /// Reduction-invariant scalar factor, applied after the dot.
    pub(crate) scale: f32,
    /// Stream count **excluding** the weight stream (sites of a stacked
    /// group share row metadata but read different weight tensors, so
    /// the weight's load/flop share is charged at memo-hit time from
    /// [`ActiveSite::weight_tensor`]).
    pub(crate) streams: u64,
    /// Touched row-side tensor ids (with multiplicity); the weight
    /// tensor is *not* included.
    pub(crate) tensors: Vec<u32>,
}

/// Where a wave's GEMM result lives.
pub(crate) enum GroupOut {
    /// Deferred into a super-wave GEMM that has not flushed yet; reading
    /// it is a bug (the request is parked until results install).
    Pending,
    /// This request's own GEMM (the single-run path), computed once
    /// every group of the wave has gathered — or, for a
    /// [`GroupKind::PerNode`] group, node by node as it gathered (never
    /// deferred: there is nothing to merge).
    Owned(Vec<f32>),
    /// A block of a merged super-wave result shared by several requests;
    /// this request's rows start at `base`. (`Arc`, not `Rc`: the lanes
    /// of a forked epilogue read it.)
    Shared { buf: Arc<Vec<f32>>, base: usize },
}

/// One stacked GEMM currently serving a wave: the packed rows, the
/// result matrix, and the per-row accounting shared by its sites.
pub(crate) struct ActiveGroup {
    /// Engine-wide group id (the scratch-buffer cache index).
    pub(crate) id: usize,
    /// GEMM output, `[rows][cols]` row-major (owned or a shared block).
    pub(crate) out: GroupOut,
    /// Packed operand rows: the solo GEMM's left operand, then kept only
    /// to return the buffer to the pool (empty when the rows were
    /// gathered into a super-wave matrix).
    pub(crate) rows: Vec<f32>,
    /// Row count of the group's GEMM.
    pub(crate) n_rows: usize,
    /// Per-row metadata; sites index it via their `meta_off`.
    pub(crate) meta: Vec<RowMeta>,
    /// A per-node product's `Y` panel, kept to return it to the pool.
    pub(crate) panel: PackedB,
    /// Output row length (ΣH of the stacked sites, or H when rows are
    /// stacked instead).
    pub(crate) cols: usize,
}

impl ActiveGroup {
    /// The group's GEMM result rows, row-major from its row 0.
    #[inline]
    pub(crate) fn rows(&self) -> &[f32] {
        match &self.out {
            GroupOut::Owned(v) => v,
            GroupOut::Shared { buf, base } => &buf[base * self.cols..],
            GroupOut::Pending => unreachable!("wave GEMM result read before its flush"),
        }
    }

    /// One element of the GEMM result.
    #[inline]
    pub(crate) fn value(&self, row: usize, col: usize) -> f32 {
        checked_assert!(
            col < self.cols,
            "col {col} outside {}-wide group",
            self.cols
        );
        self.rows()[row * self.cols + col]
    }
}

/// A site currently served from an [`ActiveGroup`]'s GEMM result.
pub(crate) struct ActiveSite {
    /// The site's `Sum` binder slot ([`SumSite::binder`]).
    pub(crate) binder: usize,
    /// Index into `Interp::active_groups`.
    pub(crate) group: usize,
    /// Row offset of this site's block in the group result
    /// (`member_index · wave_len` for row-stacked groups, else 0).
    pub(crate) row_off: usize,
    /// Column offset of this site's block (prefix sum of stacked `h`s
    /// for weight-stacked groups, else 0).
    pub(crate) col_off: usize,
    /// Offset into the group's `meta` (row-stacked groups carry one
    /// metadata entry per site per row; weight-stacked share one set).
    pub(crate) meta_off: usize,
    pub(crate) k: u64,
    /// Weight tensor id, charged per element at memo-hit time.
    pub(crate) weight_tensor: u32,
    pub(crate) feat_slot: usize,
    /// `(slot, extent H_j)` of a per-node product's column variable
    /// ([`crate::wave::NodeProduct::j`]): element `(i, j)` of a node is
    /// column `i·H_j + j` of its result row.
    pub(crate) j: Option<(usize, usize)>,
    pub(crate) n_idx_slot: usize,
}

impl ActiveSite {
    /// The result column of the element the slots select.
    #[inline]
    pub(crate) fn col(&self, slots: &[i64]) -> usize {
        let i = slots[self.feat_slot] as usize;
        self.col_off
            + match self.j {
                None => i,
                Some((slot, hj)) => i * hj + slots[slot] as usize,
            }
    }
}

impl<'a> Interp<'a> {
    /// Runs the GEMM phase for every stacking group of a wave plan,
    /// making their `Sum`s servable from result matrices. Returns the
    /// number of `(sites, groups)` activated, the wave's clock (last read
    /// when its GEMMs ended) for the phase that follows unless it
    /// deferred any, and whether it did.
    ///
    /// A solo wave gathers every group's rows first and then runs every
    /// group's GEMM, in group order — the order a super-wave flush runs
    /// them in — reading the clock three times: at its start, after the
    /// gathers and after the GEMMs. With `defer` set (the `execute_many`
    /// path), the gathered rows are registered into the super-wave
    /// accumulator instead: the caller parks this request until the
    /// merged GEMMs flush and their results install. A per-node group
    /// computes its products as it gathers, deferred or not, so a wave of
    /// those alone never parks.
    ///
    /// Accounting discipline: the scalar path evaluates guards, scalar
    /// factors and stream bases once per *element* (`wave_len × h` times
    /// per site); the packing phase evaluates them once per *gathered
    /// row* and multiplies the counter deltas by the served element
    /// count of every site the row serves, while the per-element loads
    /// and flops of the dot itself are charged at memo-hit time. The
    /// resulting `Profile` is identical to the scalar path's — and
    /// entirely per-request: the GEMM itself touches no counters, which
    /// is what makes cross-request merging invisible to the `Profile`.
    pub(crate) fn prepare_wave(
        &mut self,
        plan: &WavePlan,
        wave: usize,
        wave_len: usize,
        mut defer: Option<(&mut SuperWaveAcc, usize)>,
    ) -> ((usize, usize), Option<Stopwatch>, bool) {
        // The analysis plans no wave loop inside another, so the active
        // sites are this wave's, by plan ordinal.
        debug_assert!(self.active.is_empty(), "wave activations nest");
        self.active.resize_with(plan.sites.len(), || None);
        let mut clock = Stopwatch::start(self.timed);
        let (mut groups, mut deferred) = (0usize, false);
        for (ordinal, group) in plan.groups.iter().enumerate() {
            let n = self.prepare_group(
                plan,
                group,
                wave,
                ordinal,
                wave_len,
                defer.as_mut().map(|(acc, req)| (&mut **acc, *req)),
            );
            groups += usize::from(n > 0);
            deferred |= n > 0 && defer.is_some() && group.kind != GroupKind::PerNode;
        }
        self.caches.stats.gather_ns += clock.lap();
        if groups == 0 {
            self.active.clear();
            return ((0, 0), None, false);
        }
        self.caches.stats.waves_batched += 1;
        #[cfg(feature = "checked")]
        self.shadow_enter_wave();
        let activated = (plan.sites.len(), groups);
        if deferred {
            return (activated, None, true);
        }
        self.run_wave_gemms(plan, groups);
        self.caches.stats.gemm_ns += clock.lap();
        (activated, Some(clock), false)
    }

    /// The solo wave's GEMM phase: one register-tiled GEMM for each of
    /// the wave's last `groups` active groups, into its owned result.
    /// Guard-zero rows need no special handling here: the memo hit
    /// short-circuits to exactly 0.0 (matching the scalar path, which
    /// never touches the weight — inf/NaN containment happens at that
    /// early return) so their slots in the result are never read.
    fn run_wave_gemms(&mut self, plan: &WavePlan, groups: usize) {
        let from = self.active_groups.len() - groups;
        for group in &mut self.active_groups[from..] {
            if plan.groups[group.id - plan.group_base].kind == GroupKind::PerNode {
                continue; // computed as it gathered
            }
            let GroupOut::Owned(out) = &mut group.out else {
                unreachable!("a solo wave owns its results")
            };
            let weight = self.packs[group.id].get().expect("packed this wave");
            let forked = kernels::gemm_packed_into(out, &group.rows, weight, group.n_rows);
            self.caches.stats.forked_gemms += u64::from(forked);
        }
    }

    /// Group `id`'s packed weight: its members' `[H][K]` windows stacked
    /// vertically for a shared-rows group, the one shared window for a
    /// row-stacked one. Packed by whichever run, on whichever lane, needs
    /// it first after the params generation changed; every other run
    /// multiplies by that one copy. Only a
    /// [`SiteGroup::static_window`] group is packed: its window is the
    /// whole of a 2-D `Param`, so the pack depends on nothing else.
    fn packed_weight(
        &mut self,
        plan: &WavePlan,
        group: &SiteGroup,
        id: usize,
        k_len: usize,
    ) -> &'a Arc<PackedB> {
        let packs: &'a [OnceLock<Arc<PackedB>>] = self.packs;
        packs[id].get_or_init(|| {
            self.caches.stats.weight_packs += 1;
            let stacked = match group.kind {
                GroupKind::SharedWeight => &group.members[..1],
                _ => &group.members[..],
            };
            let cols = stacked.iter().map(|&m| plan.sites[m].feat_extent).sum();
            // One k-stream per stacked column, in member order.
            let columns = stacked.iter().flat_map(|&m| {
                let w = &plan.sites[m].weight;
                let buf = self.bufs[w.tensor.0 as usize]
                    .as_ref()
                    .expect("weight allocated");
                let (si, sk) = (buf.strides[w.i_pos], buf.strides[w.k_pos]);
                (0..plan.sites[m].feat_extent).map(move |i| (&buf.data[i * si..], sk))
            });
            Arc::new(PackedB::pack(cols, k_len, columns))
        })
    }

    /// Gathers one stacking group's operand rows against its packed
    /// weight — into a pending super-wave GEMM under `defer`, else into
    /// the group's own row block for [`Interp::run_wave_gemms`] — and
    /// activates its member sites. Returns the number of sites activated:
    /// none for a group that is not [`SiteGroup::static_window`] or a
    /// per-node product whose `X` cannot be read in place, whose sites
    /// run per element instead.
    fn prepare_group(
        &mut self,
        plan: &WavePlan,
        group: &SiteGroup,
        wave: usize,
        ordinal: usize,
        wave_len: usize,
        defer: Option<(&mut SuperWaveAcc, usize)>,
    ) -> usize {
        // The analyzer guarantees every member shares the reduction
        // extent (grouping requires structurally equal extents).
        let (members, leader) = (&group.members, &plan.sites[group.members[0]]);
        let k_len = self.eval_idx(&leader.extent).max(0) as usize;
        let id = plan.group_base + ordinal;
        let weight = match group.kind {
            GroupKind::PerNode if self.rows_in_place(leader, k_len) => None,
            GroupKind::PerNode => return 0,
            _ if group.static_window => Some(self.packed_weight(plan, group, id, k_len)),
            _ => {
                self.caches.stats.fallback_sites += members.len() as u64;
                return 0;
            }
        };
        let cols = weight.map_or_else(|| leader.cols(), |w| w.shape().0);

        // Gather phase: resolve guards/child-sums/scalars once per row
        // and pack the operand rows. Shared-rows groups gather one row
        // per node (serving every member); row-stacked groups gather one
        // block of rows per member.
        let gemm_rows = match group.kind {
            GroupKind::SharedWeight => members.len() * wave_len,
            _ => wave_len,
        };
        let mut bufs = entry(&mut self.caches.group_bufs, id)
            .pop()
            .unwrap_or_default();
        // Only grown: a shorter wave leaves the tail's `tensors`
        // allocations for the next longer one.
        if bufs.meta.len() < gemm_rows {
            bufs.meta.resize_with(gemm_rows, RowMeta::default);
        }

        let group_idx = self.active_groups.len();
        let stats = &mut self.caches.stats;
        stats.sites_batched += members.len() as u64;
        if members.len() > 1 {
            stats.stacked_groups += 1;
            stats.stacked_sites += members.len() as u64;
        }
        let out = if group.kind == GroupKind::PerNode {
            self.node_products(plan, leader, k_len, wave_len, &mut bufs);
            GroupOut::Owned(std::mem::take(&mut bufs.out))
        } else if let Some((acc, request)) = defer {
            // Register this request's block of the merged super-wave
            // GEMM and gather straight into it; the GEMM runs at flush.
            let key = SuperKey {
                wave,
                group: ordinal,
            };
            let weight = weight.expect("a packed group");
            let (entry, base) = acc.register(key, weight, gemm_rows, request, group_idx);
            let rows = acc.rows_mut(entry, base, gemm_rows);
            self.gather_rows(
                plan,
                group.kind,
                members,
                k_len,
                wave_len,
                rows,
                &mut bufs.meta,
            );
            GroupOut::Pending
        } else {
            bufs.rows.clear();
            bufs.rows.resize(gemm_rows * k_len, 0.0);
            let GroupBufs { rows, meta, .. } = &mut bufs;
            self.gather_rows(plan, group.kind, members, k_len, wave_len, rows, meta);
            // The product stores every element, so only growth is
            // filled.
            bufs.out.resize(gemm_rows * cols, 0.0);
            // Deferred GEMMs are counted at flush time, where several
            // requests' waves may share one launch.
            let stats = &mut self.caches.stats;
            stats.wave_gemms += 1;
            stats.gemm_rows += gemm_rows as u64;
            stats.gemm_flops += 2 * (gemm_rows * cols * k_len) as u64;
            GroupOut::Owned(std::mem::take(&mut bufs.out))
        };

        self.active_groups.push(ActiveGroup {
            id,
            out,
            rows: std::mem::take(&mut bufs.rows),
            n_rows: gemm_rows,
            meta: std::mem::take(&mut bufs.meta),
            panel: std::mem::take(&mut bufs.panel),
            cols,
        });
        let mut col_off = 0usize;
        for (g, &m) in members.iter().enumerate() {
            let (row_off, c_off, meta_off) = match group.kind {
                GroupKind::SharedWeight => (g * wave_len, 0, g * wave_len),
                _ => (0, col_off, 0),
            };
            let site = &plan.sites[m];
            col_off += site.feat_extent;
            self.active[m] = Some(ActiveSite {
                binder: site.binder,
                group: group_idx,
                row_off,
                col_off: c_off,
                meta_off,
                k: k_len as u64,
                weight_tensor: site.weight.tensor.0,
                feat_slot: site.feat_slot,
                j: site.per_node.as_ref().and_then(|p| p.j),
                n_idx_slot: plan.n_idx_slot,
            });
        }
        members.len()
    }

    /// Gathers a group's operand rows into `rows`/`meta`. Shared-rows
    /// members' row operands are structurally equal (select guards
    /// included), so the leader's gather stands in for all of them, and
    /// the per-element walk would have resolved once per served element
    /// of every member: hence the Σ replay factor. Row-stacked members
    /// gather one block of rows each.
    #[allow(clippy::too_many_arguments)]
    fn gather_rows(
        &mut self,
        plan: &WavePlan,
        kind: GroupKind,
        members: &[usize],
        k_len: usize,
        wave_len: usize,
        rows: &mut [f32],
        meta: &mut [RowMeta],
    ) {
        checked_assert!(
            plan.n_idx_slot < self.slots.len(),
            "wave index slot {} out of range",
            plan.n_idx_slot
        );
        let (blocks, shared_replay) = match kind {
            GroupKind::SharedWeight => (members, None),
            _ => (
                &members[..1],
                Some(
                    (members.iter())
                        .map(|&m| plan.sites[m].served_per_row as u64)
                        .sum(),
                ),
            ),
        };
        let mut resolved = std::mem::take(&mut self.caches.resolved);
        for (g, &m) in blocks.iter().enumerate() {
            let site = &plan.sites[m];
            let p0 = &self.profile;
            let before = (p0.flops, p0.leaf_check_loads, p0.branch_checks);
            for r in 0..wave_len {
                self.enter_row(plan.n_idx_slot, &plan.node_let, r);
                let at = g * wave_len + r;
                if self.resolve_row_meta(&site.row, k_len, &mut meta[at], &mut resolved) {
                    self.pack_row(&mut resolved, &mut rows[at * k_len..(at + 1) * k_len]);
                }
            }
            let served = shared_replay.unwrap_or(site.served_per_row as u64);
            self.replay_row_counters(before, served);
        }
        self.caches.resolved = resolved;
    }

    /// The per-element walk would repeat each row's resolution for every
    /// element the row serves: replays the counter deltas since `before`
    /// `served - 1` more times (the node binding charges nothing, the
    /// select guards are evaluated silently).
    fn replay_row_counters(&mut self, before: (u64, u64, u64), served: u64) {
        let extra = served.saturating_sub(1);
        let p = &mut self.profile;
        p.flops += (p.flops - before.0) * extra;
        p.leaf_check_loads += (p.leaf_check_loads - before.1) * extra;
        p.branch_checks += (p.branch_checks - before.2) * extra;
    }

    /// Resolves one row through its compiled address program into `r`
    /// and its metadata entry, rewritten in place so its `tensors`
    /// allocation is recycled across waves. Returns whether the row is
    /// live, i.e. has a reduction row to pack.
    fn resolve_row_meta(
        &mut self,
        row: &RowOperand,
        k_len: usize,
        meta: &mut RowMeta,
        r: &mut Resolved,
    ) -> bool {
        meta.tensors.clear();
        // Value-level `Select` guards: when one fails, the scalar path
        // never reaches this reduction for this node — no resolution,
        // no accounting, and the (pre-zeroed) row is never read, so its
        // child indirections (possibly NO_CHILD) are never resolved.
        if !row.guards.is_empty() && !self.guards_hold_silently(&row.guards) {
            meta.scale = 0.0;
            meta.zero = true;
            meta.streams = 0;
            return false;
        }
        self.resolve_row(row, r);
        meta.scale = r.scale;
        meta.zero = r.zero || k_len == 0;
        if meta.zero {
            meta.streams = 0;
            return false;
        }
        meta.streams = r.streams.len() as u64;
        meta.tensors
            .extend(r.streams.iter().map(|&(t, _, _)| t as u32));
        #[cfg(feature = "checked")]
        self.shadow_record_row(&r.streams, k_len);
        true
    }

    /// Packs a resolved row's reduction elements into `out_row`.
    fn pack_row(&self, r: &mut Resolved, out_row: &mut [f32]) {
        // The matvec row is a plain copy; any other product is folded a
        // factor at a time.
        if let Some(&[(t, b, 1)]) = r.plain() {
            let data = &self.bufs[t].as_ref().expect("allocated").data;
            out_row.copy_from_slice(&data[b..b + out_row.len()]);
        } else {
            r.pack(&self.bufs, out_row);
        }
    }

    /// Whether a per-node product's `X` can be read in place as `K`-wide
    /// rows this wave: its reduction position must be the unit-stride
    /// last one, its feature position `K` apart. If not, the site falls
    /// back for the wave.
    fn rows_in_place(&mut self, site: &SumSite, k_len: usize) -> bool {
        let w = &site.weight;
        let x = self.bufs[w.tensor.0 as usize]
            .as_ref()
            .expect("X allocated");
        let fits = k_len == 0
            || (x.strides[w.k_pos] == 1
                && x.strides[w.i_pos] == k_len
                && x.dims[w.i_pos] >= site.feat_extent);
        self.caches.stats.fallback_sites += u64::from(!fits);
        fits
    }

    /// Gathers and multiplies a per-node product `site`, node by node,
    /// into `bufs`: `Y` resolves like any gathered row, its `[k][j]` block
    /// is packed into the group's recycled panel, and `X`'s `[i][k]` block,
    /// read in place as rows, is multiplied into the node's result row.
    /// Each element is the same k-sequential chain as the per-element dot
    /// (`fma(x, y, acc)` is `fma(y, x, acc)` bit for bit).
    fn node_products(
        &mut self,
        plan: &WavePlan,
        site: &SumSite,
        k_len: usize,
        wave_len: usize,
        bufs: &mut GroupBufs,
    ) {
        let product = site.per_node.as_ref().expect("a per-node site");
        let (hi, cols, xt) = (site.feat_extent, site.cols(), site.weight.tensor.0 as usize);
        let hj = cols / hi;
        bufs.rows.resize(k_len, 0.0);
        bufs.out.resize(wave_len * cols, 0.0);
        let mut resolved = std::mem::take(&mut self.caches.resolved);
        let p0 = &self.profile;
        let before = (p0.flops, p0.leaf_check_loads, p0.branch_checks);
        if let Some((slot, _)) = product.j {
            self.slots[slot] = 0; // `Y` resolves at its first column
        }
        for r in 0..wave_len {
            self.enter_row(plan.n_idx_slot, &plan.node_let, r);
            if !self.resolve_row_meta(&site.row, k_len, &mut bufs.meta[r], &mut resolved) {
                continue; // a zeroed row's results are never read
            }
            if let Some(&[(t, b, s)]) = resolved.plain() {
                let data = &self.bufs[t].as_ref().expect("Y allocated").data;
                bufs.panel.pack_nn_into(&data[b..], s, hj, k_len);
            } else {
                // Only a matvec's `Y` may be more than one load.
                self.pack_row(&mut resolved, &mut bufs.rows);
                bufs.panel.pack_nn_into(&bufs.rows, 1, 1, k_len);
            }
            let (xb, _) = self.addr(&product.x);
            #[cfg(feature = "checked")]
            {
                // `X`'s rows are one run; `Y`'s first column was recorded
                // as it resolved.
                self.shadow_record_row(&[(xt, xb, 1)], hi * k_len);
                if let Some(&(t, b, s)) = resolved.streams.first() {
                    for jj in 1..hj {
                        self.shadow_record_row(&[(t, b + jj, s)], k_len);
                    }
                }
            }
            let x = &self.bufs[xt].as_ref().expect("X allocated").data;
            let out = &mut bufs.out[r * cols..(r + 1) * cols];
            let x = &x[xb..xb + hi * k_len];
            let forked = kernels::gemm_packed_into(out, x, &bufs.panel, hi);
            self.caches.stats.forked_gemms += u64::from(forked);
        }
        self.replay_row_counters(before, site.served_per_row as u64);
        self.caches.resolved = resolved;
    }

    /// Deactivates the last `(sites, groups)` of a wave, returning the
    /// group buffers to the per-group pools.
    pub(crate) fn finish_wave(&mut self, (sites, groups): (usize, usize)) {
        #[cfg(feature = "checked")]
        if groups > 0 {
            self.shadow_exit_wave();
        }
        self.active.truncate(self.active.len() - sites);
        for _ in 0..groups {
            let group = self.active_groups.pop().expect("active group");
            // Shared (super-wave) results are dropped with their `Rc`;
            // only owned output buffers return to the pool.
            let out = match group.out {
                GroupOut::Owned(v) => v,
                GroupOut::Shared { .. } | GroupOut::Pending => Vec::new(),
            };
            entry(&mut self.caches.group_bufs, group.id).push(GroupBufs {
                rows: group.rows,
                out,
                meta: group.meta,
                panel: group.panel,
            });
        }
    }

    /// Hands this request its block of a flushed super-wave GEMM result.
    pub(crate) fn install_wave_result(
        &mut self,
        group_idx: usize,
        buf: Arc<Vec<f32>>,
        base: usize,
    ) {
        debug_assert!(matches!(
            self.active_groups[group_idx].out,
            GroupOut::Pending
        ));
        self.active_groups[group_idx].out = GroupOut::Shared { buf, base };
    }
}
