//! The four workloads. Each builds its inputs from the run's seed, warms
//! what it does not mean to measure, measures for `--seconds`, records its
//! metrics into the run's report, and checks its answers.

pub mod analyst;
pub mod families;
pub mod serve;
pub mod update;
