//! Forecasting baselines the paper compares RankNet against (Table III):
//!
//! * [`currank`] — the naive "rank positions will not change" baseline,
//! * [`arima`] — ARIMA(p,d,q) fitted by Hannan–Rissanen with Gaussian
//!   forecast intervals (the only classical baseline with uncertainty),
//! * [`forest`] — a CART random-forest regressor (trees trained in parallel
//!   on `std` scoped threads),
//! * [`svr`] — ε-SVR with an RBF kernel trained by SMO (the paper's
//!   strongest classical baseline on TaskB),
//! * [`gbt`] — second-order gradient-boosted regression trees with
//!   regularised leaf weights, the XGBoost stand-in.
//!
//! All of them follow the approach of Tulabandhula & Rudin the paper cites:
//! pointwise regression on engineered features rather than sequence
//! modeling, which is exactly the limitation RankNet is built to beat.

pub mod arima;
pub mod currank;
pub mod forest;
pub mod gbt;
pub mod linalg;
pub mod svr;
pub mod tree;

pub use arima::Arima;
pub use currank::CurRank;
pub use forest::RandomForest;
pub use gbt::GradientBoostedTrees;
pub use svr::Svr;
pub use tree::RegressionTree;
