//! Weighted mixtures of access patterns.
//!
//! Real programs interleave phases with different locality; a weighted
//! mixture of the primitive generators in [`crate::gen`] approximates this
//! at the reference level. Mixtures are themselves [`AccessPattern`]s, so
//! they nest.

use crate::gen::AccessPattern;
use crate::instr::MemRef;
use rand::rngs::SmallRng;
use rand::Rng;

/// A weighted mixture of boxed access patterns.
///
/// Each reference is drawn from component `i` with probability
/// `weight_i / Σ weights`.
pub struct MixtureTrace {
    components: Vec<(f64, Box<dyn AccessPattern + Send>)>,
    total_weight: f64,
}

impl std::fmt::Debug for MixtureTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixtureTrace")
            .field("components", &self.components.len())
            .field("total_weight", &self.total_weight)
            .finish()
    }
}

impl AccessPattern for MixtureTrace {
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        let mut pick = rng.gen_range(0.0..self.total_weight);
        for (w, p) in &mut self.components {
            if pick < *w {
                return p.next_ref(rng);
            }
            pick -= *w;
        }
        // Floating-point edge: fall through to the last component.
        self.components
            .last_mut()
            .expect("mixture has at least one component")
            .1
            .next_ref(rng)
    }
}

/// Builder for [`MixtureTrace`].
///
/// # Example
///
/// ```
/// use simtrace::gen::{PatternTrace, StridedSweep, TraceShape, WorkingSet};
/// use simtrace::mix::MixtureBuilder;
///
/// let mix = MixtureBuilder::new()
///     .boxed(0.7, Box::new(StridedSweep::new(0, 1 << 20, 8, 8, 4)))
///     .boxed(0.3, Box::new(WorkingSet::new(1 << 24, 8192, 0.3, 4)))
///     .build();
/// let trace = PatternTrace::new(mix, TraceShape::default(), 11);
/// assert_eq!(trace.take(1000).count(), 1000);
/// ```
#[derive(Debug, Default)]
pub struct MixtureBuilder {
    components: Vec<(f64, Box<dyn AccessPattern + Send>)>,
}

impl std::fmt::Debug for Box<dyn AccessPattern + Send> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AccessPattern")
    }
}

impl MixtureBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a boxed component with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    pub fn boxed(mut self, weight: f64, pattern: Box<dyn AccessPattern + Send>) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        self.components.push((weight, pattern));
        self
    }

    /// Finishes the mixture.
    ///
    /// # Panics
    ///
    /// Panics if no component was added.
    pub fn build(self) -> MixtureTrace {
        assert!(
            !self.components.is_empty(),
            "mixture needs at least one component"
        );
        let total_weight = self.components.iter().map(|(w, _)| *w).sum();
        MixtureTrace {
            components: self.components,
            total_weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkingSet;
    use rand::SeedableRng;

    #[test]
    fn mixture_draws_from_all_components_by_weight() {
        let mut mix = MixtureBuilder::new()
            .boxed(0.8, Box::new(WorkingSet::new(0, 64, 0.0, 4)))
            .boxed(0.2, Box::new(WorkingSet::new(0x1_0000, 64, 0.0, 4)))
            .build();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let low = (0..n)
            .filter(|_| mix.next_ref(&mut rng).addr.raw() < 0x1_0000)
            .count();
        let frac = low as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "component weight off: {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mixture_panics() {
        MixtureBuilder::new().build();
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn non_positive_weight_panics() {
        MixtureBuilder::new().boxed(0.0, Box::new(WorkingSet::new(0, 64, 0.0, 4)));
    }

    #[test]
    fn single_component_mixture_is_that_component() {
        let mut mix = MixtureBuilder::new()
            .boxed(1.0, Box::new(WorkingSet::new(0, 64, 0.0, 4)))
            .build();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(mix.next_ref(&mut rng).addr.raw() < 64);
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let mix = MixtureBuilder::new()
            .boxed(1.0, Box::new(WorkingSet::new(0, 64, 0.0, 4)))
            .build();
        assert!(format!("{mix:?}").contains("MixtureTrace"));
    }
}
