//! Random-forest regressor: bagged CART trees with per-split feature
//! subsampling, trained in parallel on `std` scoped threads (contiguous
//! runs of trees per thread — the classic embarrassingly-parallel fit).
//!
//! Besides the point forecast (mean over trees), the spread of per-tree
//! predictions provides the quantiles used when the paper draws RF's
//! "forecast-90%" band in Fig 2.

use crate::tree::{RegressionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forest hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub tree: TreeConfig,
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 10,
                min_samples_leaf: 2,
                max_features: 0,
            },
            seed: 0,
        }
    }
}

/// A fitted random forest.
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fit on rows `x` with targets `y`.
    pub fn fit(x: &[Vec<f32>], y: &[f32], cfg: &ForestConfig) -> RandomForest {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "cannot fit a forest on no data");
        let n_features = x[0].len();
        let mtry = if cfg.tree.max_features == 0 {
            // Standard regression default: n/3, at least 1.
            (n_features / 3).max(1)
        } else {
            cfg.tree.max_features.min(n_features)
        };

        let n_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16);
        // Contiguous tree-index ranges, one scoped thread each; every tree
        // is seeded by its index, so the forest is the same for any split.
        let per = cfg.n_trees.div_ceil(n_threads).max(1);
        let trees: Vec<RegressionTree> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.n_trees)
                .step_by(per)
                .map(|lo| {
                    s.spawn(move || {
                        (lo..(lo + per).min(cfg.n_trees))
                            .map(|t| fit_one_tree(x, y, cfg, mtry, t as u64))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });

        RandomForest { trees }
    }

    /// Mean prediction over trees.
    pub fn predict(&self, row: &[f32]) -> f32 {
        self.tree_predictions(row).iter().sum::<f32>() / self.trees.len() as f32
    }

    /// Every tree's prediction (empirical forecast distribution).
    pub fn tree_predictions(&self, row: &[f32]) -> Vec<f32> {
        self.trees.iter().map(|t| t.predict(row)).collect()
    }

    /// Empirical quantile of the per-tree predictions.
    pub fn predict_quantile(&self, row: &[f32], q: f32) -> f32 {
        let mut p = self.tree_predictions(row);
        p.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = (q.clamp(0.0, 1.0) * (p.len() - 1) as f32).round() as usize;
        p[pos]
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

fn fit_one_tree(
    x: &[Vec<f32>],
    y: &[f32],
    cfg: &ForestConfig,
    mtry: usize,
    tree_index: u64,
) -> RegressionTree {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (tree_index.wrapping_mul(0x9E3779B9)));
    let n = x.len();
    // Bootstrap sample.
    let mut bx = Vec::with_capacity(n);
    let mut by = Vec::with_capacity(n);
    for _ in 0..n {
        let i = rng.gen_range(0..n);
        bx.push(x[i].clone());
        by.push(y[i]);
    }
    let n_features = x[0].len();
    let mut sampler = move |nf: usize| {
        debug_assert_eq!(nf, n_features);
        let mut feats: Vec<usize> = (0..nf).collect();
        // Partial Fisher–Yates: first `mtry` entries are a uniform sample.
        for k in 0..mtry.min(nf) {
            let j = rng.gen_range(k..nf);
            feats.swap(k, j);
        }
        feats.truncate(mtry.min(nf));
        feats
    };
    RegressionTree::fit_with_sampler(&bx, &by, &cfg.tree, &mut sampler)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = next();
            let b = next();
            let c = next();
            x.push(vec![a, b, c]);
            y.push(10.0 * a + 5.0 * b * b + 2.0 * (c - 0.5).abs());
        }
        (x, y)
    }

    #[test]
    fn beats_mean_predictor() {
        let (x, y) = friedman_like(400, 1);
        let cfg = ForestConfig {
            n_trees: 40,
            ..Default::default()
        };
        let forest = RandomForest::fit(&x, &y, &cfg);
        let (xt, yt) = friedman_like(100, 2);
        let mean_y: f32 = y.iter().sum::<f32>() / y.len() as f32;
        let mut forest_sse = 0.0;
        let mut mean_sse = 0.0;
        for (row, &t) in xt.iter().zip(&yt) {
            let p = forest.predict(row);
            forest_sse += (p - t) * (p - t);
            mean_sse += (mean_y - t) * (mean_y - t);
        }
        assert!(
            forest_sse < 0.3 * mean_sse,
            "forest SSE {forest_sse} should be far below baseline {mean_sse}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedman_like(100, 3);
        let cfg = ForestConfig {
            n_trees: 8,
            ..Default::default()
        };
        let a = RandomForest::fit(&x, &y, &cfg);
        let b = RandomForest::fit(&x, &y, &cfg);
        for row in x.iter().take(10) {
            assert_eq!(a.predict(row), b.predict(row));
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let (x, y) = friedman_like(200, 4);
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_trees: 30,
                ..Default::default()
            },
        );
        let row = &x[0];
        let q10 = forest.predict_quantile(row, 0.1);
        let q50 = forest.predict_quantile(row, 0.5);
        let q90 = forest.predict_quantile(row, 0.9);
        assert!(q10 <= q50 && q50 <= q90);
    }

    #[test]
    fn n_trees_respected() {
        let (x, y) = friedman_like(50, 5);
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_trees: 13,
                ..Default::default()
            },
        );
        assert_eq!(forest.n_trees(), 13);
    }
}
