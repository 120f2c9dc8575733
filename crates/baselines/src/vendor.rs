//! The metered "vendor library": black-box kernels with per-call
//! accounting.
//!
//! Frameworks built on cuDNN/cuBLAS/MKL invoke one opaque kernel per
//! operator (per node when eager, per dynamic batch otherwise). Each call
//! re-reads its parameters from global memory, requires contiguous inputs,
//! and costs a launch. [`VendorCtx`] wraps `cortex_tensor::kernels` with
//! exactly that cost structure, writing into the shared
//! [`Profile`] so baseline and Cortex
//! runs are compared on identical meters.

use cortex_backend::profile::{Profile, WaveStat};
use cortex_tensor::{kernels, Tensor};

/// Tracks live allocations to compute peak memory (Fig. 12).
#[derive(Debug, Default, Clone)]
pub struct MemoryMeter {
    live: u64,
    peak: u64,
    /// Reusable workspace (contiguity scratch), sized by its largest use —
    /// §7.6: "DyNet requires extra scratch space to ensure contiguous
    /// inputs to vendor library calls".
    pool: u64,
    /// When false (training-style frameworks), nothing is ever freed.
    pub allow_free: bool,
}

impl MemoryMeter {
    /// A meter that never frees (DyNet/Cavs keep intermediates for
    /// backprop).
    pub fn training() -> Self {
        MemoryMeter {
            allow_free: false,
            ..MemoryMeter::default()
        }
    }

    /// A meter that frees tensors when released (PyTorch eager, DyNet's
    /// simulated inference mode).
    pub fn inference() -> Self {
        MemoryMeter {
            allow_free: true,
            ..MemoryMeter::default()
        }
    }

    /// Records an allocation of `bytes`.
    pub fn alloc(&mut self, bytes: u64) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }

    /// Records a release of `bytes` (no-op for training meters).
    pub fn free(&mut self, bytes: u64) {
        if self.allow_free {
            self.live = self.live.saturating_sub(bytes);
        }
    }

    /// Peak bytes observed (live allocations plus the workspace pool).
    pub(crate) fn peak(&self) -> u64 {
        self.peak + self.pool
    }
}

/// A metered vendor-library context.
#[derive(Debug)]
pub struct VendorCtx {
    /// The profile being filled.
    pub profile: Profile,
    /// Peak-memory meter.
    pub memory: MemoryMeter,
    /// When true, elementwise calls immediately following a reduction are
    /// folded into it (Cavs-style partial fusion).
    pub fuse_elementwise: bool,
    last_was_reduction: bool,
}

impl VendorCtx {
    /// Creates a context with the given memory policy and fusion behavior.
    pub fn new(memory: MemoryMeter, fuse_elementwise: bool) -> Self {
        VendorCtx {
            profile: Profile::new(),
            memory,
            fuse_elementwise,
            last_was_reduction: false,
        }
    }

    fn call(&mut self, is_reduction: bool) {
        if self.fuse_elementwise && !is_reduction && self.last_was_reduction {
            // Folded into the previous kernel: no extra launch.
        } else {
            self.profile.launches += 1;
            self.profile.host_api_calls += 1;
        }
        self.last_was_reduction = is_reduction;
    }

    /// Batched matrix product against a parameter: `Y[b] = W · X[b]`.
    ///
    /// One kernel call; the parameter is read once per call, inputs and
    /// outputs move through global memory.
    pub fn batched_matvec(&mut self, w: &Tensor, xs: &[&[f32]]) -> Vec<Vec<f32>> {
        self.call(true);
        let (m, k) = (w.shape().dim(0), w.shape().dim(1));
        let b = xs.len() as u64;
        let bytes = w.len() as u64 * 4 + b * k as u64 * 4 + b * m as u64 * 4;
        self.profile.param_bytes_read += w.len() as u64 * 4;
        self.profile.global_bytes_read += b * k as u64 * 4;
        self.profile.global_bytes_written += b * m as u64 * 4;
        let flops = b * 2 * (m as u64) * (k as u64);
        self.profile.flops += flops;
        self.profile.waves.push(WaveStat {
            flops,
            width: b,
            bytes,
        });
        xs.iter()
            .map(|x| (0..m).map(|i| kernels::dot(w.row(i), x)).collect())
            .collect()
    }

    /// Batched matrix–vector product where the matrix is *data* (MV-RNN's
    /// per-node composition matrices), so it is global traffic rather than
    /// parameter traffic.
    pub fn batched_dyn_matvec(&mut self, pairs: &[(&[f32], &[f32])], h: usize) -> Vec<Vec<f32>> {
        self.call(true);
        let b = pairs.len() as u64;
        let bytes = b * (h * h + 2 * h) as u64 * 4;
        self.profile.global_bytes_read += b * (h * h + h) as u64 * 4;
        self.profile.global_bytes_written += b * h as u64 * 4;
        let flops = b * 2 * (h as u64) * (h as u64);
        self.profile.flops += flops;
        self.profile.waves.push(WaveStat {
            flops,
            width: b,
            bytes,
        });
        pairs
            .iter()
            .map(|(m, x)| {
                (0..h)
                    .map(|i| {
                        let mut acc = 0.0;
                        for k in 0..h {
                            acc += m[i * h + k] * x[k];
                        }
                        acc
                    })
                    .collect()
            })
            .collect()
    }

    /// A batched elementwise kernel over `width` rows of `len` elements
    /// with roughly `ops_per_elem` flops each; `reads` input rows are
    /// consumed per output row. The closure computes the actual values.
    pub fn batched_elementwise<T>(
        &mut self,
        width: usize,
        len: usize,
        ops_per_elem: u64,
        reads: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.call(false);
        let b = width as u64;
        let flops = b * len as u64 * ops_per_elem;
        let bytes = b * (reads + 1) * len as u64 * 4;
        self.profile.flops += flops;
        self.profile.global_bytes_read += b * reads * len as u64 * 4;
        self.profile.global_bytes_written += b * len as u64 * 4;
        self.profile.waves.push(WaveStat {
            flops,
            width: b,
            bytes,
        });
        f()
    }

    /// A gather/scatter copy making vendor inputs contiguous (§7.2:
    /// "checks and memory copy operations have significant overheads").
    /// The destination workspace counts toward peak memory (§7.6).
    pub fn contiguity_copy(&mut self, bytes: u64) {
        self.profile.memcpy_bytes += bytes;
        self.profile.host_api_calls += 1;
        self.memory.pool = self.memory.pool.max(bytes);
        self.profile.allocated_bytes = self.memory.peak();
    }

    /// Allocates an intermediate of `bytes` (peak-memory accounting).
    pub fn alloc(&mut self, bytes: u64) {
        self.memory.alloc(bytes);
        self.profile.allocated_bytes = self.memory.peak();
    }

    /// Releases an intermediate of `bytes`.
    pub fn free(&mut self, bytes: u64) {
        self.memory.free(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_counts_launch_params_and_flops() {
        let mut ctx = VendorCtx::new(MemoryMeter::inference(), false);
        let w = Tensor::random(&[4, 4], 0.5, 1);
        let x = vec![1.0f32; 4];
        let ys = ctx.batched_matvec(&w, &[&x, &x]);
        assert_eq!(ys.len(), 2);
        assert_eq!(ctx.profile.launches, 1);
        assert_eq!(ctx.profile.param_bytes_read, 64);
        assert_eq!(ctx.profile.flops, 2 * 2 * 16);
        assert_eq!(ctx.profile.waves[0].width, 2);
    }

    #[test]
    fn partial_fusion_swallows_elementwise_after_reduction() {
        let mut fused = VendorCtx::new(MemoryMeter::inference(), true);
        let w = Tensor::random(&[2, 2], 0.5, 2);
        let x = vec![1.0f32; 2];
        fused.batched_matvec(&w, &[&x]);
        fused.batched_elementwise(1, 2, 1, 1, || ());
        assert_eq!(fused.profile.launches, 1, "elementwise folded into matvec");
        // Two elementwise in a row: the second costs a launch.
        fused.batched_elementwise(1, 2, 1, 1, || ());
        assert_eq!(fused.profile.launches, 2);

        let mut unfused = VendorCtx::new(MemoryMeter::inference(), false);
        unfused.batched_matvec(&w, &[&x]);
        unfused.batched_elementwise(1, 2, 1, 1, || ());
        assert_eq!(unfused.profile.launches, 2);
    }

    #[test]
    fn memory_meter_tracks_peak() {
        let mut m = MemoryMeter::inference();
        m.alloc(100);
        m.alloc(50);
        m.free(100);
        m.alloc(20);
        assert_eq!(m.peak(), 150);
        let mut t = MemoryMeter::training();
        t.alloc(100);
        t.free(100); // ignored
        t.alloc(50);
        assert_eq!(t.peak(), 150);
    }
}
