//! Serving glue: the catalog-backed [`BatchExecutor`] behind
//! `bulkrun serve`.
//!
//! `bulkd` is catalog-agnostic — it moves word bit patterns.  This module
//! closes the loop: keys resolve through [`Algo::parse`], a batch of fewer
//! than [`SCALAR_BELOW_P`] instances runs on the scalar engine and a larger
//! one replays through the shared [`ScheduleCaches`] (sharded), and the
//! caches' hit/compile totals feed the daemon's `stats` snapshot.
//!
//! [`SCALAR_BELOW_P`]: crate::registry::SCALAR_BELOW_P

use crate::registry::{Algo, ScheduleCaches};
use bulkd::{BatchExecutor, ExecPath, JobKey};
use std::sync::Arc;

/// Executes coalesced batches through the algorithm registry.
#[derive(Debug, Default)]
pub struct CatalogExecutor {
    caches: Arc<ScheduleCaches>,
    shards: usize,
}

impl CatalogExecutor {
    /// An executor replaying each batch of at least
    /// [`SCALAR_BELOW_P`](crate::registry::SCALAR_BELOW_P) instances over
    /// `shards` threads (clamped to at least one;
    /// batch-level parallelism comes from the worker pool).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self { caches: Arc::new(ScheduleCaches::new()), shards: shards.max(1) }
    }

    /// The shared schedule caches (for tests asserting compile counts).
    #[must_use]
    pub fn caches(&self) -> &Arc<ScheduleCaches> {
        &self.caches
    }

    fn algo(key: &JobKey) -> Result<Algo, String> {
        Algo::parse(&key.algo, Some(key.size))
    }
}

/// Serving cap on the size parameter of exponent-style algorithms
/// (`fft`, `bitonic`, `oe-mergesort` take `k`, working on `2^k` words).
pub const MAX_SERVE_EXPONENT: usize = 16;

/// Serving cap on the size parameter of direct-`n` algorithms.
pub const MAX_SERVE_SIZE: usize = 4096;

/// Admission-time bound check, *before* [`Algo::parse`] runs: a size far
/// outside the catalog's supported range must bounce as a structured
/// `bad-request`, not allocate `2^k` words (or overflow) constructing
/// the program.
fn check_serve_size(key: &JobKey) -> Result<(), String> {
    let (cap, what) = match key.algo.as_str() {
        "fft" | "bitonic" | "oe-mergesort" => (MAX_SERVE_EXPONENT, "exponent k ="),
        _ => (MAX_SERVE_SIZE, "size"),
    };
    if key.size > cap {
        return Err(format!(
            "{} {what} {} exceeds the serving cap of {cap}; run it offline via `bulkrun run`",
            key.algo, key.size
        ));
    }
    Ok(())
}

impl BatchExecutor for CatalogExecutor {
    fn validate(&self, key: &JobKey) -> Result<usize, String> {
        check_serve_size(key)?;
        Ok(Self::algo(key)?.input_words())
    }

    fn execute(
        &self,
        key: &JobKey,
        inputs: &[Vec<u64>],
    ) -> Result<(Vec<Vec<u64>>, ExecPath), String> {
        let algo = Self::algo(key)?;
        Ok(algo.serve_bits(&self.caches, key.layout, inputs, self.shards))
    }

    fn cache_stats(&self) -> (u64, u64) {
        let t = self.caches.totals();
        (t.hits, t.compiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Engine, SCALAR_BELOW_P};
    use oblivious::Layout;

    #[test]
    fn validate_accepts_catalog_keys_and_rejects_unknown() {
        let ex = CatalogExecutor::new(1);
        let key = JobKey { algo: "prefix-sums".into(), size: 64, layout: Layout::ColumnWise };
        assert_eq!(ex.validate(&key).unwrap(), 64);
        let bad = JobKey { algo: "bogosort".into(), size: 64, layout: Layout::ColumnWise };
        assert!(ex.validate(&bad).unwrap_err().contains("unknown algorithm"));
        let bad = JobKey { algo: "opt".into(), size: 2, layout: Layout::ColumnWise };
        assert!(ex.validate(&bad).is_err());
    }

    #[test]
    fn validate_caps_sizes_outside_the_serving_range() {
        let ex = CatalogExecutor::new(1);
        // A huge exponent must bounce *before* 2^k construction.
        let huge = JobKey { algo: "fft".into(), size: 60, layout: Layout::ColumnWise };
        let e = ex.validate(&huge).unwrap_err();
        assert!(e.contains("serving cap"), "{e}");
        let huge = JobKey { algo: "prefix-sums".into(), size: 1 << 20, layout: Layout::RowWise };
        assert!(ex.validate(&huge).unwrap_err().contains("serving cap"));
        // The caps themselves are servable.
        let edge =
            JobKey { algo: "prefix-sums".into(), size: MAX_SERVE_SIZE, layout: Layout::ColumnWise };
        assert_eq!(ex.validate(&edge).unwrap(), MAX_SERVE_SIZE);
    }

    /// Below the crossover a batch runs scalar and touches no cache; at it,
    /// the first batch compiles and the next hits.  Every path's outputs
    /// equal the direct compiled engine's.
    #[test]
    fn execute_matches_direct_engine_and_counts_cache_traffic() {
        let ex = CatalogExecutor::new(2);
        let key = JobKey { algo: "fir".into(), size: 16, layout: Layout::RowWise };
        let algo = Algo::parse("fir", Some(16)).unwrap();
        let inputs = algo.random_inputs_bits(3, 6);
        let (out, path) = ex.execute(&key, &inputs).unwrap();
        let direct = algo.outputs_bits(Engine::Compiled { shards: 1 }, 6, Layout::RowWise, 3);
        assert_eq!(out, direct);
        assert_eq!((path, ex.cache_stats()), (ExecPath::Scalar, (0, 0)));

        let p = SCALAR_BELOW_P;
        let inputs = algo.random_inputs_bits(3, p);
        let direct = algo.outputs_bits(Engine::Compiled { shards: 1 }, p, Layout::RowWise, 3);
        let (out, path) = ex.execute(&key, &inputs).unwrap();
        assert_eq!(out, direct);
        assert_eq!((path, ex.cache_stats()), (ExecPath::Compiled, (0, 1)));
        let (out, path) = ex.execute(&key, &inputs).unwrap();
        assert_eq!(out, direct);
        assert_eq!((path, ex.cache_stats()), (ExecPath::CacheHit, (1, 1)));
    }
}
