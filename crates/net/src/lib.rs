//! Network models for McNetKAT: the `M(p, t)` / `M̂(p, t, f)` constructions
//! of §2 and §7, routing schemes (ECMP/F10₀, F10₃, F10₃,₅), failure models
//! `f_k` and their generalisation [`FailureSpec`] (per-link heterogeneous
//! probabilities, correlated shared-risk link groups), the teleport
//! specification, verification queries, and the fused per-switch
//! compilation pipeline with its optional parallel fan-out.

#![forbid(unsafe_code)]

mod chain;
pub mod codec;
mod example;
mod failure;
mod fields;
pub mod fused;
mod model;
mod queries;
mod scheme;

pub use chain::{chain_benchmark, chain_delivery_native, chain_expected_delivery, ChainBenchmark};
pub use codec::{Codec, CodecError, ModelDescription, Reader};
pub use example::{running_example, RunningExample};
pub use failure::{FailureModel, FailureSpec, Srlg};
pub use fields::NetFields;
pub use fused::{compile_model_parallel, compile_model_parallel_with_stats, FusedStats};
pub use model::{teleport, NetworkModel};
pub use queries::{HopStats, Queries};
pub use scheme::{down_ports, RoutingScheme};

/// Unit tests of the parallel fan-out (`fused::compile_model_parallel`):
/// its result is the sequential compile's very handle.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::{compile_model_parallel, compile_model_parallel_with_stats};
        use crate::{FailureModel, NetworkModel, Queries, RoutingScheme};
        use mcnetkat_fdd::Manager;
        use mcnetkat_num::Ratio;
        use mcnetkat_topo::ab_fattree;

        fn model() -> NetworkModel {
            let topo = ab_fattree(4);
            let dst = topo.find("edge0_0").unwrap();
            NetworkModel::new(
                topo,
                dst,
                RoutingScheme::F10_3,
                FailureModel::independent(Ratio::new(1, 10)),
            )
        }

        #[test]
        fn parallel_matches_sequential() {
            let m = model();
            let mgr = Manager::new();
            let sequential = m.compile(&mgr).unwrap();
            // Includes worker counts that do not divide the switch count and
            // exceed the core count.
            for workers in [1, 2, 3, 4, 7] {
                let parallel =
                    compile_model_parallel(&mgr, &m, workers, &Default::default()).unwrap();
                assert_eq!(parallel, sequential, "workers = {workers}");
            }
        }

        #[test]
        fn parallel_matches_sequential_with_more_workers_than_switches() {
            let m = model();
            let switches = m.topo.switches().len();
            let mgr = Manager::new();
            let sequential = m.compile(&mgr).unwrap();
            let parallel =
                compile_model_parallel(&mgr, &m, switches + 5, &Default::default()).unwrap();
            assert_eq!(parallel, sequential);
        }

        #[test]
        fn parallel_queries_agree() {
            let m = model();
            let mgr = Manager::new();
            let fdd = compile_model_parallel(&mgr, &m, 4, &Default::default()).unwrap();
            let q = Queries::from_fdd(&mgr, &m, fdd);
            let seq_q = Queries::new(&mgr, &m).unwrap();
            let src = m.topo.find("edge1_0").unwrap();
            assert_eq!(q.delivery_prob(src), seq_q.delivery_prob(src));
        }

        #[test]
        fn parallel_stats_cover_every_switch() {
            let m = model();
            let mgr = Manager::new();
            let (fdd, stats) =
                compile_model_parallel_with_stats(&mgr, &m, 3, &Default::default()).unwrap();
            assert_eq!(stats.switches, m.topo.switches().len());
            assert!(stats.max_scratch_nodes > 0);
            assert_eq!(fdd, m.compile(&mgr).unwrap());
        }
    }
}
