//! Model parameter binding.

use std::collections::HashMap;
use std::sync::Arc;

use cortex_tensor::Tensor;

/// Named parameter tensors bound to a lowered program's `Param`
/// declarations (weights, biases, embedding tables).
///
/// Each tensor is held behind an [`Arc`], and engines bind their `Param`
/// buffers to that allocation in place: a clone shares every tensor
/// (it only bumps reference counts), so a model served by several
/// shards keeps one copy of its parameters. [`set`](Self::set) rebinds
/// one entry of one set and leaves every clone's binding untouched.
///
/// # Example
///
/// ```
/// use cortex_backend::params::Params;
/// use cortex_tensor::Tensor;
///
/// let mut p = Params::new();
/// p.set("W", Tensor::random(&[4, 4], 0.5, 0));
/// assert!(p.get("W").is_some());
/// assert!(p.get("missing").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Params {
    by_name: HashMap<String, Arc<Tensor>>,
    generation: u64,
}

/// Process-wide generation counter: every mutation of any `Params` gets
/// a fresh value, so a generation uniquely identifies one binding state
/// (clones share it until either side mutates — which is exactly the
/// sharing the engine's packed weights want to recognize).
static NEXT_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Params {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Params::default()
    }

    /// Binds (or replaces) a parameter by name. Only this set sees the
    /// new tensor: clones keep the one they shared.
    pub fn set(&mut self, name: &str, value: Tensor) -> &mut Self {
        self.by_name.insert(name.to_string(), Arc::new(value));
        self.generation = NEXT_GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self
    }

    /// An identity for the current binding state. Two calls return the
    /// same value iff no [`set`](Self::set) happened in between, which
    /// lets the executor keep each stacking group's packed weight across
    /// runs (and across requests of a serving batch) instead of
    /// repacking every run — and drop them the moment a binding changes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up a parameter.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.by_name.get(name).map(|t| &**t)
    }

    /// The shared handle of a parameter: what an engine binds its
    /// `Param` buffer to instead of copying the data.
    pub(crate) fn get_shared(&self, name: &str) -> Option<&Arc<Tensor>> {
        self.by_name.get(name)
    }

    /// Iterates over all bound parameters.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.by_name.iter().map(|(k, v)| (k.as_str(), &**v))
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Total bytes across all parameters.
    pub fn total_bytes(&self) -> u64 {
        self.by_name.values().map(|t| t.len() as u64 * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_and_bytes() {
        let mut p = Params::new();
        assert!(p.is_empty());
        p.set("W", Tensor::zeros(&[2, 3]));
        p.set("b", Tensor::zeros(&[3]));
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_bytes(), (6 + 3) * 4);
        assert_eq!(p.get("W").unwrap().shape().dims(), &[2, 3]);
    }

    #[test]
    fn generation_changes_on_set_and_sticks_otherwise() {
        let mut p = Params::new();
        let g0 = p.generation();
        p.set("W", Tensor::zeros(&[2]));
        let g1 = p.generation();
        assert_ne!(g0, g1);
        assert_eq!(p.generation(), g1, "reads do not advance the generation");
        let clone = p.clone();
        assert_eq!(clone.generation(), g1, "clones share the binding state");
        p.set("W", Tensor::zeros(&[2]));
        assert_ne!(
            p.generation(),
            g1,
            "rebinding advances even with equal shape"
        );
        assert_eq!(clone.generation(), g1);
    }

    #[test]
    fn set_replaces() {
        let mut p = Params::new();
        p.set("W", Tensor::zeros(&[2]));
        p.set("W", Tensor::zeros(&[5]));
        assert_eq!(p.get("W").unwrap().len(), 5);
    }
}
