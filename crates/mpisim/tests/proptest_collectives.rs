//! Property-based tests: every collective must agree with its sequential
//! specification for arbitrary payloads, rank counts, and roots.

use proptest::prelude::*;
use ratucker_mpi::{sum_op, Universe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_equals_sequential_fold(
        p in 1usize..=6,
        len in 0usize..8,
        seed in 0u64..1000,
    ) {
        // Deterministic per-rank payloads derived from (seed, rank).
        let payload = move |rank: usize| -> Vec<f64> {
            (0..len).map(|i| ((seed as usize + rank * 31 + i * 7) % 97) as f64).collect()
        };
        let expected: Vec<f64> = (0..len)
            .map(|i| (0..p).map(|r| payload(r)[i]).sum())
            .collect();
        let out = Universe::launch(p, move |c| c.try_allreduce(payload(c.rank()), sum_op).unwrap());
        for v in out {
            prop_assert_eq!(&v, &expected);
        }
    }

    #[test]
    fn bcast_delivers_root_payload(
        p in 1usize..=6,
        root_pick in 0usize..6,
        len in 0usize..8,
    ) {
        let root = root_pick % p;
        let data: Vec<u64> = (0..len as u64).map(|i| i * 3 + 1).collect();
        let expected = data.clone();
        let out = Universe::launch(p, move |c| {
            let send = if c.rank() == root { data.clone() } else { Vec::new() };
            c.try_bcast(root, send).unwrap()
        });
        for v in out {
            prop_assert_eq!(&v, &expected);
        }
    }

    #[test]
    fn allgather_then_flatten_reconstructs_all(
        p in 1usize..=6,
        seed in 0u64..1000,
    ) {
        let payload = move |rank: usize| -> Vec<u64> {
            (0..(rank % 3) + 1).map(|i| seed + (rank * 100 + i) as u64).collect()
        };
        let out = Universe::launch(p, move |c| c.try_allgatherv(payload(c.rank())).unwrap());
        for blocks in out {
            prop_assert_eq!(blocks.len(), p);
            for (r, b) in blocks.iter().enumerate() {
                prop_assert_eq!(b, &payload(r));
            }
        }
    }

    #[test]
    fn reduce_scatter_partitions_allreduce(
        p in 1usize..=5,
        seed in 0u64..1000,
        counts_seed in 0usize..100,
    ) {
        // Random per-rank counts (some possibly zero).
        let counts: Vec<usize> = (0..p).map(|i| (counts_seed + i * 13) % 4).collect();
        let total: usize = counts.iter().sum();
        let payload = move |rank: usize| -> Vec<f64> {
            (0..total).map(|i| ((seed as usize + rank * 17 + i * 5) % 89) as f64).collect()
        };
        let full_sum: Vec<f64> = (0..total)
            .map(|i| (0..p).map(|r| payload(r)[i]).sum())
            .collect();
        let counts2 = counts.clone();
        let out = Universe::launch(p, move |c| {
            c.try_reduce_scatter(payload(c.rank()), &counts2, sum_op).unwrap()
        });
        let mut offset = 0;
        for (r, block) in out.into_iter().enumerate() {
            prop_assert_eq!(&block[..], &full_sum[offset..offset + counts[r]]);
            offset += counts[r];
        }
    }

    #[test]
    fn alltoall_is_a_transpose(p in 1usize..=6, seed in 0u64..100) {
        let out = Universe::launch(p, move |c| {
            let blocks: Vec<Vec<u64>> =
                (0..p).map(|dst| vec![seed + (c.rank() * 1000 + dst) as u64]).collect();
            c.try_alltoallv(blocks).unwrap()
        });
        for (me, rows) in out.into_iter().enumerate() {
            for (src, b) in rows.into_iter().enumerate() {
                prop_assert_eq!(b, vec![seed + (src * 1000 + me) as u64]);
            }
        }
    }

    #[test]
    fn delay_only_fault_plans_preserve_collective_semantics(
        p in 2usize..=6,
        len in 1usize..8,
        seed in 0u64..1000,
        plan_seed in 0u64..1000,
        prob_pct in 0u32..=100,
    ) {
        // A plan that can only reorder timing must be invisible to the
        // collectives: same sums, same blocks, bit for bit.
        let plan = ratucker_mpi::FaultPlan::quiet(plan_seed)
            .with_delays(prob_pct as f64 / 100.0, std::time::Duration::from_micros(400));
        prop_assert!(plan.is_semantics_preserving());

        let payload = move |rank: usize| -> Vec<f64> {
            (0..len)
                .map(|i| ((seed as usize + rank * 29 + i * 11) % 83) as f64 * 0.5)
                .collect()
        };
        let expected: Vec<f64> = (0..len)
            .map(|i| (0..p).map(|r| payload(r)[i]).sum())
            .collect();

        let u = Universe::with_fault_plan(p, plan);
        let out = u.run(move |c| {
            let summed = c.try_allreduce(payload(c.rank()), sum_op).unwrap();
            let gathered = c.try_allgatherv(payload(c.rank())).unwrap();
            (summed, gathered)
        });
        for (summed, gathered) in out {
            prop_assert_eq!(&summed, &expected);
            for (r, b) in gathered.iter().enumerate() {
                prop_assert_eq!(b, &payload(r));
            }
        }
    }

    #[test]
    fn retry_healed_flaky_links_leave_collectives_bit_identical(
        p in 2usize..=5,
        len in 1usize..8,
        seed in 0u64..1000,
        plan_seed in 0u64..1000,
        prob_pct in 1u32..=20,
        link_seed in 0usize..100,
    ) {
        // A flaky link loses messages, so the plan is *not*
        // semantics-preserving on its own — but bounded retry heals it,
        // and because loss decisions are pure functions of the per-link
        // message index, a healed run is bit-identical to a fault-free
        // one. At 20% loss and 12 retries the chance of exhaustion is
        // ~0.2^13 per message — never within this suite's lifetime.
        let src = link_seed % p;
        let dst = (src + 1 + link_seed % (p - 1)) % p;
        let plan = ratucker_mpi::FaultPlan::quiet(plan_seed)
            .with_flaky_link(src, dst, prob_pct as f64 / 100.0);
        prop_assert!(!plan.is_semantics_preserving());

        let payload = move |rank: usize| -> Vec<f64> {
            (0..len)
                .map(|i| ((seed as usize + rank * 29 + i * 11) % 83) as f64 * 0.5)
                .collect()
        };
        let workload = move |c: ratucker_mpi::Comm| {
            let summed = c.try_allreduce(payload(c.rank()), sum_op).unwrap();
            let gathered = c.try_allgatherv(payload(c.rank())).unwrap();
            let bits: Vec<u64> = summed
                .iter()
                .chain(gathered.iter().flatten())
                .map(|v| v.to_bits())
                .collect();
            bits
        };
        let baseline = Universe::new(p).run(workload);

        let u = Universe::with_fault_plan(p, plan);
        u.set_retry_policy(Some(ratucker_mpi::RetryPolicy::new(12)));
        let healed = u.run(workload);
        prop_assert_eq!(&healed, &baseline);

        // The ledger stays partitioned through retries, and any drop
        // that occurred was healed rather than surfacing as a timeout.
        let stats = u.traffic();
        prop_assert!(stats.check_invariant().is_ok());
        let dropped = stats.dropped.load(std::sync::atomic::Ordering::Relaxed);
        let healed = stats.drops_healed.load(std::sync::atomic::Ordering::Relaxed);
        prop_assert!(healed >= u64::from(dropped > 0));
    }

    #[test]
    fn type_mismatch_is_reported_not_panicked(p in 2usize..=4) {
        // Regression (ISSUE satellite): mismatched element types across a
        // send/recv pair must surface as a typed error through try_run —
        // no should_panic involved.
        let out = Universe::new(p).try_run(move |c| {
            if c.rank() == 0 {
                c.try_send(1, vec![1.0f64, 2.0]).unwrap_or_else(|e| panic!("{e}"));
                Ok(())
            } else if c.rank() == 1 {
                match c.try_recv::<u64>(0) {
                    Err(e) => Err(e),
                    Ok(_) => Ok(()),
                }
            } else {
                Ok(())
            }
        });
        for (rank, r) in out.into_iter().enumerate() {
            let inner = r.expect("no rank panics in this scenario");
            if rank == 1 {
                let err = inner.expect_err("rank 1 must observe the type mismatch");
                prop_assert!(
                    err.to_string().contains("unexpected element type"),
                    "got: {err}"
                );
            } else {
                prop_assert!(inner.is_ok());
            }
        }
    }

    #[test]
    fn split_partitions_and_preserves_ranks(p in 1usize..=8, ncolors in 1usize..4) {
        let out = Universe::launch(p, move |c| {
            let color = c.rank() % ncolors;
            let sub = c.try_split(color, c.rank()).unwrap();
            (color, sub.rank(), sub.size())
        });
        for (rank, (color, sub_rank, sub_size)) in out.into_iter().enumerate() {
            let members: Vec<usize> = (0..p).filter(|r| r % ncolors == color).collect();
            prop_assert_eq!(sub_size, members.len());
            prop_assert_eq!(members[sub_rank], rank);
        }
    }
}
