//! Threaded message-passing runtime — the MPI stand-in substrate.
//!
//! The paper runs on OpenMPI across NERSC Perlmutter; this crate provides
//! the same programming model in a single process so the distributed
//! algorithms can be implemented *and validated* faithfully: ranks are OS
//! threads, point-to-point messages travel over per-pair channels, and the
//! full set of collectives the Tucker kernels need (barrier, broadcast,
//! reduce, allreduce, ring allgather, pairwise reduce-scatter, all-to-all,
//! gather, comm split, Cartesian grids) is implemented on top.
//!
//! Every byte sent is counted ([`fabric::TrafficStats`]), which is how the
//! communication-cost claims of the paper's Table 2 are validated against
//! *measured* traffic rather than restated formulas.
//!
//! # Example
//!
//! ```
//! use ratucker_mpi::{sum_op, CartGrid, CommError, Universe};
//!
//! // Four ranks on a 2x2 grid: allreduce along each grid fiber. Every
//! // operation returns `Result<_, CommError>`: a lost message or a dead
//! // peer is a typed error, not a panic or a hang.
//! let sums = Universe::launch(4, |comm| -> Result<u64, CommError> {
//!     let grid = CartGrid::new(comm, &[2, 2]);
//!     let mine = vec![grid.coord(0) as u64 + 1];
//!     // Sum over the ranks sharing my column (coordinate 1 varies).
//!     Ok(grid.mode_comm(1).try_allreduce(mine, sum_op)?[0])
//! })
//! .into_iter()
//! .collect::<Result<Vec<_>, _>>()?;
//! // Ranks in column 0 sum 1+1, column 1 sums 2+2.
//! assert_eq!(sums, vec![2, 4, 2, 4]);
//! # Ok::<(), CommError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod fabric;
pub mod fault;
pub mod grid;
pub mod request;
pub mod universe;

pub use comm::{max_op, sum_op, Comm};
pub use fabric::{
    Adversary, CollectiveKind, DeadlinePolicy, Fabric, KindSnapshot, RetryPolicy, SchedulePolicy,
    TrafficScope, TrafficStats, KIND_COUNT, RECV_TIMEOUT, RECV_TIMEOUT_ENV,
};
pub use fault::{CommError, CorruptMode, FaultPlan, RankFailure};
pub use grid::{choose_shrunk_dims, enumerate_grids, try_rebuild_grid, CartGrid, ShrinkOutcome};
pub use request::Request;
pub use universe::{adopt_trace_tag, schedule_suite, ExploreReport, Universe};

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn barrier_all_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            Universe::launch(p, |c| {
                for _ in 0..3 {
                    c.try_barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                let out = Universe::launch(p, move |c| {
                    let data = if c.rank() == root {
                        vec![42.5f64, -1.0, root as f64]
                    } else {
                        Vec::new()
                    };
                    c.try_bcast(root, data).unwrap()
                });
                for v in out {
                    assert_eq!(v, vec![42.5, -1.0, root as f64], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1, 2, 3, 6, 8] {
            for root in [0, p - 1] {
                let out = Universe::launch(p, move |c| {
                    let data = vec![c.rank() as u64, 1u64];
                    c.try_reduce(root, data, sum_op).unwrap()
                });
                let expected_sum: u64 = (0..p as u64).sum();
                for (r, res) in out.into_iter().enumerate() {
                    if r == root {
                        assert_eq!(res.unwrap(), vec![expected_sum, p as u64]);
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_sequential_fold() {
        for p in [1, 2, 4, 5, 8] {
            let out = Universe::launch(p, |c| {
                let data = vec![(c.rank() + 1) as f64; 4];
                c.try_allreduce(data, sum_op).unwrap()
            });
            let want: f64 = (1..=p as u64).sum::<u64>() as f64;
            for v in out {
                assert_eq!(v, vec![want; 4]);
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = Universe::launch(6, |c| {
            let data = vec![(c.rank() * 7 % 5) as i64];
            c.try_allreduce(data, max_op).unwrap()
        });
        for v in out {
            assert_eq!(v[0], 4); // max of {0,2,4,1,3,0}
        }
    }

    #[test]
    fn allgatherv_variable_blocks() {
        for p in [1, 2, 3, 5] {
            let out = Universe::launch(p, |c| {
                let data: Vec<u64> = (0..c.rank() + 1)
                    .map(|i| (c.rank() * 10 + i) as u64)
                    .collect();
                c.try_allgatherv(data).unwrap()
            });
            for blocks in out {
                assert_eq!(blocks.len(), p);
                for (r, b) in blocks.iter().enumerate() {
                    let want: Vec<u64> = (0..r + 1).map(|i| (r * 10 + i) as u64).collect();
                    assert_eq!(b, &want, "p={p} block {r}");
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_even_blocks() {
        for p in [1, 2, 4, 8] {
            let out = Universe::launch(p, move |c| {
                // Every rank contributes data[i] = i; block b (length 2)
                // must come back as p * [2b, 2b+1].
                let data: Vec<u64> = (0..2 * p as u64).collect();
                let counts = vec![2usize; p];
                c.try_reduce_scatter(data, &counts, sum_op).unwrap()
            });
            for (r, block) in out.into_iter().enumerate() {
                let want: Vec<u64> = (0..2u64).map(|i| (2 * r as u64 + i) * p as u64).collect();
                assert_eq!(block, want, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_uneven_blocks() {
        let p = 3;
        let counts = [1usize, 3, 2];
        let out = Universe::launch(p, move |c| {
            let scale = (c.rank() + 1) as f64;
            let data: Vec<f64> = (0..6).map(|i| scale * i as f64).collect();
            c.try_reduce_scatter(data, &counts, sum_op).unwrap()
        });
        // Sum of scales = 1+2+3 = 6.
        let offsets = [0usize, 1, 4];
        for (r, block) in out.into_iter().enumerate() {
            let want: Vec<f64> = (0..counts[r])
                .map(|i| 6.0 * (offsets[r] + i) as f64)
                .collect();
            assert_eq!(block, want, "rank {r}");
        }
    }

    #[test]
    fn alltoallv_exchanges_blocks() {
        let p = 4;
        let out = Universe::launch(p, |c| {
            let blocks: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![(c.rank() * 100 + dst) as u64])
                .collect();
            c.try_alltoallv(blocks).unwrap()
        });
        for (me, received) in out.into_iter().enumerate() {
            for (src, b) in received.into_iter().enumerate() {
                assert_eq!(b, vec![(src * 100 + me) as u64]);
            }
        }
    }

    #[test]
    fn gatherv_collects_on_root() {
        let out = Universe::launch(4, |c| {
            c.try_gatherv(2, vec![c.rank() as u32; c.rank()]).unwrap()
        });
        for (r, res) in out.into_iter().enumerate() {
            if r == 2 {
                let blocks = res.unwrap();
                for (src, b) in blocks.into_iter().enumerate() {
                    assert_eq!(b, vec![src as u32; src]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn split_forms_row_communicators() {
        // 6 ranks → 2 colors of 3; key reverses the order within color.
        let out = Universe::launch(6, |c| {
            let color = c.rank() % 2;
            let key = 100 - c.rank();
            let sub = c.try_split(color, key).unwrap();
            let gathered = sub.try_allgatherv(vec![c.rank() as u64]).unwrap();
            (sub.rank(), sub.size(), gathered)
        });
        for (r, (sub_rank, sub_size, gathered)) in out.into_iter().enumerate() {
            assert_eq!(sub_size, 3);
            let flat: Vec<u64> = gathered.into_iter().flatten().collect();
            if r % 2 == 0 {
                assert_eq!(flat, vec![4, 2, 0]); // descending by key order
            } else {
                assert_eq!(flat, vec![5, 3, 1]);
            }
            let expect_rank = flat.iter().position(|&x| x == r as u64).unwrap();
            assert_eq!(sub_rank, expect_rank);
        }
    }

    #[test]
    fn nested_splits_work() {
        // Split twice: 8 → 2 groups of 4 → 4 groups of 2.
        let out = Universe::launch(8, |c| {
            let sub = c.try_split(c.rank() / 4, c.rank()).unwrap();
            let subsub = sub.try_split(sub.rank() / 2, sub.rank()).unwrap();
            let s = subsub.try_allreduce(vec![c.rank() as u64], sum_op).unwrap();
            s[0]
        });
        assert_eq!(out, vec![1, 1, 5, 5, 9, 9, 13, 13]);
    }

    #[test]
    fn point_to_point_between_ranks() {
        let out = Universe::launch(2, |c| {
            if c.rank() == 0 {
                c.try_send(1, vec![3.25f32]).unwrap();
                c.try_recv::<f32>(1).unwrap()
            } else {
                let got = c.try_recv::<f32>(0).unwrap();
                c.try_send(0, vec![got[0] * 2.0]).unwrap();
                got
            }
        });
        assert_eq!(out[0], vec![6.5]);
        assert_eq!(out[1], vec![3.25]);
    }

    #[test]
    fn agree_and_shrink_survive_a_crash() {
        use std::time::Duration;
        // 8 ranks; rank 2 dies early. Survivors revoke, agree on the
        // surviving set, shrink, and keep computing on 7 ranks — no
        // restart, no hang.
        let u = Universe::with_fault_plan(8, FaultPlan::quiet(11).with_crash(2, 4));
        u.set_recv_timeout(Duration::from_secs(10));
        let out = u.try_run(|c| {
            // Phase 1: collectives until the failure surfaces.
            loop {
                if c.try_allreduce(vec![1u64], sum_op).is_err() {
                    break;
                }
            }
            c.revoke();
            let survivors = c.try_agree().expect("agreement must succeed");
            let comm = c.shrink(&survivors).expect("caller is a survivor");
            // Phase 2: aligned post-recovery collectives on the shrunken
            // communicator (stale pre-recovery traffic is epoch-filtered).
            let mut last = 0;
            for _ in 0..3 {
                last = comm
                    .try_allreduce(vec![1u64], sum_op)
                    .expect("post-recovery collective")[0];
            }
            (survivors, comm.size(), last)
        });
        let expected_survivors: Vec<usize> = (0..8).filter(|&r| r != 2).collect();
        for (r, res) in out.iter().enumerate() {
            if r == 2 {
                assert!(res.is_err(), "rank 2 must have crashed");
            } else {
                let (survivors, size, last) = res.as_ref().unwrap();
                assert_eq!(survivors, &expected_survivors, "rank {r} survivor view");
                assert_eq!(*size, 7);
                assert_eq!(*last, 7, "rank {r} post-recovery allreduce");
            }
        }
    }

    #[test]
    fn a_retired_member_leaves_agreement_with_demoted() {
        // Rank 1 is evicted by its peer before it reaches agreement (a
        // straggler demoted while it was busy computing): it must fail
        // fast with `Demoted` instead of retrying its vote forever.
        let out = Universe::launch(2, |c| {
            if c.rank() == 0 {
                c.fabric().retire(1);
            }
            c.try_barrier().ok();
            if c.rank() == 1 {
                Some(c.try_agree())
            } else {
                None
            }
        });
        assert!(matches!(out[1], Some(Err(CommError::Demoted { rank: 1 }))));
    }

    #[test]
    fn counters_stay_consistent_under_injected_drop() {
        use std::time::Duration;
        // Regression (satellite): a collective aborting mid-fanout due to
        // dropped messages must leave attempted == delivered + dropped.
        let u = Universe::with_fault_plan(4, FaultPlan::quiet(5).with_drops(0.4));
        u.set_recv_timeout(Duration::from_millis(50));
        let _ = u.try_run(|c| {
            for _ in 0..4 {
                let _ = c.try_allreduce(vec![1.0f64; 32], sum_op);
                let _ = c.try_allgatherv(vec![c.rank() as u64; 8]);
            }
        });
        let stats = u.traffic();
        let attempted = stats.attempted.load(std::sync::atomic::Ordering::Relaxed);
        let dropped = stats.dropped.load(std::sync::atomic::Ordering::Relaxed);
        assert!(attempted > 0, "collectives attempted traffic");
        assert!(dropped > 0, "drop plan must have fired");
        stats
            .check_invariant()
            .unwrap_or_else(|(a, d, x)| panic!("attempted {a} != delivered {d} + dropped {x}"));
    }

    #[test]
    fn traffic_accounting_allreduce() {
        let u = Universe::new(4);
        u.run(|c| {
            let _ = c.try_allreduce(vec![0.0f64; 100], sum_op).unwrap();
        });
        let (bytes, msgs) = u.traffic().snapshot();
        // Reduce (3 sends of 800B) + bcast (3 sends of 800B) = 4800 bytes.
        assert_eq!(bytes, 4800);
        assert_eq!(msgs, 6);
        // Both legs are attributed to the allreduce kind.
        let totals = u.traffic().kind_totals();
        assert_eq!(totals.bytes_of(CollectiveKind::Allreduce), 4800);
        assert_eq!(totals.messages_of(CollectiveKind::Allreduce), 6);
        assert_eq!(totals.total_bytes(), 4800);
        u.traffic().check_kind_partition().unwrap();
    }

    #[test]
    fn collectives_charge_their_own_kind() {
        let u = Universe::new(4);
        u.run(|c| {
            c.try_barrier().unwrap();
            let _ = c
                .try_bcast(1, if c.rank() == 1 { vec![1u64; 5] } else { vec![] })
                .unwrap();
            let _ = c.try_reduce(0, vec![1.0f64; 3], sum_op).unwrap();
            let _ = c.try_allreduce(vec![1.0f64; 2], sum_op).unwrap();
            let _ = c.try_allgatherv(vec![c.rank() as u64; 2]).unwrap();
            let _ = c
                .try_reduce_scatter(vec![1.0f64; 4], &[1, 1, 1, 1], sum_op)
                .unwrap();
            let _ = c
                .try_alltoallv((0..4).map(|d| vec![d as u32]).collect())
                .unwrap();
            let _ = c.try_gatherv(3, vec![c.rank() as u8]).unwrap();
            let _ = c.try_split(c.rank() % 2, c.rank()).unwrap();
            if c.rank() == 0 {
                c.try_send(1, vec![9i64]).unwrap();
            }
            if c.rank() == 1 {
                let _ = c.try_recv::<i64>(0).unwrap();
            }
        });
        let totals = u.traffic().kind_totals();
        for kind in CollectiveKind::ALL {
            assert!(
                totals.messages_of(kind) > 0,
                "kind {} saw no traffic",
                kind.name()
            );
        }
        // split rides on allgatherv: one u64 triple ring (3 words x 3
        // sends x 4 ranks) on top of the explicit 2-word allgatherv.
        assert_eq!(
            totals.bytes_of(CollectiveKind::Allgatherv),
            3 * 4 * 8 * 3 + 3 * 4 * 8 * 2
        );
        assert_eq!(totals.bytes_of(CollectiveKind::PointToPoint), 8);
        assert_eq!(totals.total_bytes(), u.traffic().snapshot().0);
        assert_eq!(totals.total_messages(), u.traffic().snapshot().1);
        u.traffic().check_kind_partition().unwrap();
    }
}
