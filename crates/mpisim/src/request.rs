//! Split-phase communication: post now, complete later.
//!
//! The slabbed TTM/SI kernels in the `dist` crate *post* a slab's
//! collective, compute the next slab while the traffic is in flight,
//! and *wait* just before combining — the split-phase pattern of
//! `MPI_Iallreduce`/`MPI_Wait`. This module provides the two
//! collectives those kernels need, and each is the **only**
//! implementation of its algorithm: the blocking
//! [`Comm::try_allreduce`] and [`Comm::try_reduce_scatter`] are
//! `post(…).wait()` over the same bodies.
//!
//! - [`Comm::iallreduce`] — binomial reduce to rank 0 + binomial
//!   broadcast, with the output length checked;
//! - [`Comm::ireduce_scatter_blocks`] — pairwise-exchange
//!   reduce-scatter over owned per-destination blocks: each block
//!   *moves* into the fabric, with no contiguous staging buffer.
//!
//! # Execution model
//!
//! The simulator has no progress thread, so a request follows MPI's
//! weak-progress model: the **eager leg** of an operation executes at
//! post time (sends never block — links are unbounded FIFOs), and every
//! leg that would have to wait on a peer runs inside [`Request::wait`]:
//!
//! - `iallreduce` on an odd rank posts its single reduce-leg send
//!   eagerly, deferring only the broadcast leg;
//! - `ireduce_scatter_blocks` posts **all** `p-1` contribution sends
//!   eagerly, so the whole payload is in flight while the caller
//!   computes, and `wait` only receives and combines.
//!
//! Both combine in an order fixed by rank arithmetic alone (documented
//! on each method), so results are bit-identical under any schedule.
//! At most one operation per communicator may be in flight at a time:
//! the links are tagless FIFOs (the usual single-channel MPI ordering
//! contract).
//!
//! # Accounting, deadlines, faults
//!
//! Every leg goes through the same `send_k`/`recv_k` internals as the
//! other collectives, so traffic is charged to the operation's
//! [`CollectiveKind`] the moment each send is posted — eager-leg bytes
//! land on the ledger at post time — and the per-kind partition
//! invariant (`Σ kinds == global`) holds at every instant, even with
//! requests in flight. Deadline budgets, retry-with-backoff healing,
//! and fault injection (drops, corruption, crashes) apply unchanged;
//! errors surface from `wait` as typed [`CommError`]s.
//!
//! # Drop safety
//!
//! A `Request` dropped without `wait` (an early-return error path, say)
//! would otherwise strand its in-flight messages in the fabric
//! mailboxes, desynchronizing the *next* operation on those links. The
//! drop guard therefore drains the request — running its deferred legs
//! and discarding the result — unless the thread is already panicking
//! (a dying rank cannot be asked to communicate).

use crate::comm::{Comm, Elem};
use crate::fabric::CollectiveKind;
use crate::fault::CommError;

/// The deferred remainder of a split-phase operation.
type Continuation<R> = Box<dyn FnOnce(&Comm) -> Result<R, CommError> + Send>;

/// A handle to an in-flight split-phase operation (see the module docs
/// for the execution model). Obtain one from [`Comm::iallreduce`] or
/// [`Comm::ireduce_scatter_blocks`]; complete it with
/// [`Request::wait`]. Dropping a request without waiting drains it (see
/// "Drop safety" above).
#[must_use = "a posted request should be completed with wait()"]
pub struct Request<R> {
    comm: Comm,
    /// Deferred legs; `None` if the operation finished at post time.
    run: Option<Continuation<R>>,
    /// Result of an operation that completed at post time (or via a
    /// failed eager leg).
    done: Option<Result<R, CommError>>,
}

impl<R: Send + 'static> Request<R> {
    /// A request that completed entirely at post time.
    fn completed(comm: &Comm, result: Result<R, CommError>) -> Request<R> {
        Request {
            comm: comm.clone(),
            run: None,
            done: Some(result),
        }
    }

    /// A request whose remainder runs at `wait` time.
    fn deferred(
        comm: &Comm,
        run: impl FnOnce(&Comm) -> Result<R, CommError> + Send + 'static,
    ) -> Request<R> {
        Request {
            comm: comm.clone(),
            run: Some(Box::new(run)),
            done: None,
        }
    }

    /// Blocks until the operation completes and returns its result —
    /// `MPI_Wait`. Deferred legs execute here, under the same deadline,
    /// retry, and fault machinery as every other collective.
    pub fn wait(mut self) -> Result<R, CommError> {
        if let Some(done) = self.done.take() {
            return done;
        }
        let run = self
            .run
            .take()
            .expect("a request holds a result or a remainder");
        run(&self.comm)
    }
}

impl<R> Drop for Request<R> {
    fn drop(&mut self) {
        if let Some(run) = self.run.take() {
            // Drain rather than leak: run the deferred legs so the
            // fabric mailboxes are left empty and peers' matching sends
            // stay paired. Errors are deliberately swallowed — the
            // caller chose not to observe this operation. A panicking
            // rank skips the drain (its peers see PeerClosed instead).
            if !std::thread::panicking() {
                let _ = run(&self.comm);
            }
        }
    }
}

impl Comm {
    /// Split-phase allreduce: a binomial reduce to rank 0 followed by a
    /// binomial broadcast, both legs charged to
    /// [`CollectiveKind::Allreduce`]. [`Comm::try_allreduce`] is this
    /// followed by [`Request::wait`].
    ///
    /// Combine order: in the reduce leg, rank `v` starts from its own
    /// contribution and, for `mask = 1, 2, 4, …` while `v & mask == 0`,
    /// folds in the partial of rank `v | mask` (if it exists) as the
    /// second `op` operand; a rank sends its partial to `v & !mask` at
    /// its lowest set bit. Rank 0's final partial is broadcast
    /// verbatim, so every rank receives the same bits.
    ///
    /// An odd rank's reduce leg is a single send, posted eagerly; even
    /// ranks (whose first action is a receive) defer the whole
    /// operation. A broadcast whose length differs from the input's —
    /// a channel desynced by a lost or stray message — is a typed
    /// [`CommError::SizeMismatch`], not a silently wrong-shaped result.
    pub fn iallreduce<T: Elem>(
        &self,
        data: Vec<T>,
        op: impl Fn(&mut [T], &[T]) + Copy + Send + 'static,
    ) -> Request<Vec<T>> {
        if self.size() == 1 {
            return Request::completed(self, Ok(data));
        }
        let expected = data.len();
        let check = move |c: &Comm, out: Vec<T>| {
            if out.len() != expected {
                return Err(CommError::SizeMismatch {
                    src: c.group[0],
                    dst: c.group[c.rank],
                    expected,
                    got: out.len(),
                });
            }
            Ok(out)
        };
        if self.rank % 2 == 1 {
            // Entire reduce leg (root 0 ⇒ vrank == rank): one send to
            // the even partner, charged at post time.
            if let Err(e) = self.send_k(self.rank & !1, data, CollectiveKind::Allreduce) {
                return Request::completed(self, Err(e));
            }
            return Request::deferred(self, move |c: &Comm| {
                let out = c.bcast_k(0, Vec::new(), CollectiveKind::Allreduce)?;
                check(c, out)
            });
        }
        Request::deferred(self, move |c: &Comm| {
            let reduced = c.reduce_k(0, data, op, CollectiveKind::Allreduce)?;
            let out = c.bcast_k(0, reduced.unwrap_or_default(), CollectiveKind::Allreduce)?;
            check(c, out)
        })
    }

    /// Split-phase reduce-scatter over owned per-destination blocks:
    /// `blocks[q]` is this rank's contribution to rank `q`'s chunk, and
    /// the result is this rank's chunk reduced across the communicator.
    /// [`Comm::try_reduce_scatter`] is this followed by
    /// [`Request::wait`].
    ///
    /// A pairwise exchange: all `p − 1` contribution sends are posted
    /// (and charged) eagerly, in ascending ring distance, each block
    /// moved rather than copied; `wait` receives and combines. Combine
    /// order for chunk `r`: contributions folded in source order
    /// `r−1, r−2, …, r+1` (mod `p`), starting from rank `r−1`'s raw
    /// block with the accumulator always the first `op` operand, and
    /// rank `r`'s own block folded in last.
    pub fn ireduce_scatter_blocks<T: Elem>(
        &self,
        mut blocks: Vec<Vec<T>>,
        op: impl Fn(&mut [T], &[T]) + Copy + Send + 'static,
    ) -> Request<Vec<T>> {
        let p = self.size();
        assert_eq!(blocks.len(), p, "reduce_scatter needs one block per rank");
        if p == 1 {
            let only = blocks.pop().expect("one block");
            return Request::completed(self, Ok(only));
        }
        let rank = self.rank;
        // Eager leg. The slot left behind each moved block is empty.
        for d in 1..p {
            let dst = (rank + d) % p;
            let chunk = std::mem::take(&mut blocks[dst]);
            if let Err(e) = self.send_k(dst, chunk, CollectiveKind::ReduceScatter) {
                return Request::completed(self, Err(e));
            }
        }
        let mine = std::mem::take(&mut blocks[rank]);
        Request::deferred(self, move |c: &Comm| {
            let mut acc: Option<Vec<T>> = None;
            for d in 1..p {
                let src = (rank + p - d) % p;
                let incoming: Vec<T> = c.recv_k(src, CollectiveKind::ReduceScatter)?;
                if incoming.len() != mine.len() {
                    return Err(CommError::SizeMismatch {
                        src: c.group[src],
                        dst: c.group[rank],
                        expected: mine.len(),
                        got: incoming.len(),
                    });
                }
                match &mut acc {
                    None => acc = Some(incoming),
                    Some(acc) => op(acc, &incoming),
                }
            }
            let mut acc = acc.expect("p > 1: at least one contribution");
            op(&mut acc, &mine);
            Ok(acc)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::sum_op;
    use crate::fabric::CollectiveKind;
    use crate::fault::CommError;
    use crate::universe::Universe;

    /// Order-sensitive, non-integer payload entries: rounding differs
    /// between summation orders, so a bitwise match pins the order.
    fn entry(rank: usize, i: usize) -> f64 {
        ((rank * 7 + i * 3 + 1) as f64 * 0.37).sin() * 10f64.powi((rank % 3) as i32 - 1)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Sequential reference for [`Comm::iallreduce`]'s documented
    /// binomial combine order: rank `v`'s partial after folding the
    /// subtrees below `limit`.
    fn binomial_partial(vals: &[Vec<f64>], v: usize, limit: usize) -> Vec<f64> {
        let p = vals.len();
        let mut acc = vals[v].clone();
        let mut mask = 1;
        while mask < limit && mask < p {
            if v | mask < p {
                sum_op(&mut acc, &binomial_partial(vals, v | mask, mask));
            }
            mask <<= 1;
        }
        acc
    }

    #[test]
    fn collectives_match_their_documented_sequential_fold_bitwise() {
        for p in [1usize, 2, 3, 4, 8] {
            let len = 5;
            let counts: Vec<usize> = (0..p).map(|q| 1 + q % 3).collect();
            let total: usize = counts.iter().sum();
            let c2 = counts.clone();
            let out = Universe::launch(p, move |c| {
                let me = c.rank();
                let ar = c.try_allreduce((0..len).map(|i| entry(me, i)).collect(), sum_op);
                let rs_data: Vec<f64> = (0..total).map(|i| entry(me, i + 11)).collect();
                let rs = c.try_reduce_scatter(rs_data, &c2, sum_op);
                (ar.unwrap(), rs.unwrap())
            });

            let ar_vals: Vec<Vec<f64>> = (0..p)
                .map(|r| (0..len).map(|i| entry(r, i)).collect())
                .collect();
            let ar_want = binomial_partial(&ar_vals, 0, usize::MAX);
            let mut offset = 0;
            for (r, (ar, rs)) in out.iter().enumerate() {
                assert_eq!(bits(ar), bits(&ar_want), "p={p} rank {r}: allreduce order");
                // Chunk r folds sources r−1, r−2, …, r+1, then r itself.
                let chunk = |src: usize| -> Vec<f64> {
                    (offset..offset + counts[r])
                        .map(|i| entry(src, i + 11))
                        .collect()
                };
                let mut want = chunk((r + p - 1) % p);
                for d in 2..=p {
                    sum_op(&mut want, &chunk((r + p - d) % p));
                }
                assert_eq!(
                    bits(rs),
                    bits(&want),
                    "p={p} rank {r}: reduce-scatter order"
                );
                offset += counts[r];
            }
        }
    }

    #[test]
    fn stray_message_before_allreduce_is_a_size_mismatch() {
        // A message left on the 0→1 link (a desynced channel) is what
        // rank 1's broadcast leg receives: its length differs from the
        // allreduce's, which must surface typed rather than as a
        // wrong-shaped `Ok`.
        let out = Universe::launch(2, |c| {
            if c.rank() == 0 {
                c.try_send(1, vec![9.0f64; 5]).unwrap();
            }
            c.try_allreduce(vec![1.0f64; 3], sum_op)
        });
        assert_eq!(out[0].as_ref().unwrap(), &vec![2.0; 3]);
        match &out[1] {
            Err(CommError::SizeMismatch {
                expected: 3,
                got: 5,
                ..
            }) => {}
            other => panic!("rank 1: expected SizeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn eager_leg_traffic_is_charged_at_post_time() {
        let u = Universe::new(2);
        u.run(|c| {
            let scope = c.traffic_scope();
            let req = c.ireduce_scatter_blocks(vec![vec![0.0f64; 100]; 2], sum_op);
            // Charged before wait: the peer's 800 bytes are on the
            // ledger while the request is still in flight.
            let delta = scope.delta();
            assert_eq!(delta.bytes_of(CollectiveKind::ReduceScatter), 800);
            assert_eq!(delta.messages_of(CollectiveKind::ReduceScatter), 1);
            req.wait().unwrap();
        });
        u.traffic().check_kind_partition().unwrap();
        u.traffic()
            .check_invariant()
            .unwrap_or_else(|(a, d, x)| panic!("attempted {a} != delivered {d} + dropped {x}"));
    }

    #[test]
    fn dropped_request_does_not_leak_mailbox_slots() {
        // Without the drop guard, the un-received contributions would
        // sit in the mailboxes and the follow-up collective on the same
        // links would pop them instead of its own traffic (a
        // type-mismatch / wrong answer), and the per-kind ledger would
        // stay unbalanced.
        let u = Universe::new(2);
        let out = u.run(|c| {
            let rs = c.ireduce_scatter_blocks(vec![vec![1.0f64], vec![1.0f64]], sum_op);
            drop(rs);
            let ar = c.iallreduce(vec![0.5f64; 3], sum_op);
            drop(ar);
            // The links are clean: this must see its own traffic only.
            c.try_allreduce(vec![c.rank() as u64 + 1], sum_op).unwrap()
        });
        assert_eq!(out, vec![vec![3], vec![3]]);
        u.traffic().check_kind_partition().unwrap();
        u.traffic()
            .check_invariant()
            .unwrap_or_else(|(a, d, x)| panic!("attempted {a} != delivered {d} + dropped {x}"));
    }

    #[test]
    fn partition_invariant_holds_with_requests_in_flight() {
        let u = Universe::new(4);
        u.run(|c| {
            let blocks: Vec<Vec<f64>> = (0..4).map(|i| vec![(c.rank() + i) as f64]).collect();
            let rs = c.ireduce_scatter_blocks(blocks, sum_op);
            // In flight: every rank's eager contribution sends are
            // posted. Every charged byte must already be attributed to
            // a kind.
            c.traffic().check_kind_partition().unwrap();
            rs.wait().unwrap();
        });
        u.traffic().check_kind_partition().unwrap();
    }

    #[test]
    fn in_flight_request_surfaces_peer_death_as_typed_error() {
        use crate::fault::FaultPlan;
        let u = Universe::with_fault_plan(2, FaultPlan::quiet(17).with_crash(0, 3));
        u.set_recv_timeout(std::time::Duration::from_secs(10));
        let out = u.try_run(|c| {
            if c.rank() == 1 {
                let req = c.ireduce_scatter_blocks(vec![vec![1.0f64], vec![2.0]], sum_op);
                match req.wait() {
                    Err(CommError::PeerClosed { .. }) => "typed peer-closed",
                    Err(_) => "other error",
                    Ok(_) => "unexpected data",
                }
            } else {
                // Burn fabric ops (self-sends, so rank 1's mailbox from
                // us stays empty) until the injected crash fires.
                loop {
                    c.try_send(0, vec![0u8]).unwrap();
                }
            }
        });
        assert!(out[0].is_err(), "rank 0 must crash");
        assert_eq!(*out[1].as_ref().unwrap(), "typed peer-closed");
    }
}
