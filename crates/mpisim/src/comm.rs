//! Communicators and collective operations.
//!
//! A [`Comm`] is a view of an ordered subset of a universe's ranks, in the
//! sense of an MPI communicator: rank `r` of the communicator maps to a
//! world rank through the group table. Sub-communicators are created with
//! [`Comm::try_split`], exactly like `MPI_Comm_split`.
//!
//! Collective algorithms:
//! - barrier — dissemination;
//! - broadcast / reduce — binomial trees;
//! - allreduce — reduce + broadcast;
//! - allgatherv — ring (bandwidth-optimal, `(p-1)/p · total` per link);
//! - reduce-scatter — pairwise exchange, every contribution sent at once;
//! - all-to-all — direct pairwise exchange (channels are unbounded, so
//!   posting all sends before any receive cannot deadlock).
//!
//! Every collective assumes all ranks of the communicator call it in the
//! same program order — the usual MPI contract.
//!
//! Every operation has one form, the fallible `try_*` call returning
//! `Result<_, CommError>`: lost messages, crashed peers, revocation and
//! type mismatches surface as typed errors, and the caller decides
//! whether to recover, propagate or panic. Allreduce and reduce-scatter
//! are implemented once, in split-phase form ([`crate::request`]); their
//! `try_*` forms post and wait at once.

use crate::fabric::{CollectiveKind, Fabric, TrafficScope};
use crate::fault::CommError;
use std::sync::Arc;

/// Element types that can travel through the fabric.
pub trait Elem: Clone + Send + 'static {}
impl<T: Clone + Send + 'static> Elem for T {}

/// A communicator: an ordered group of ranks over a shared fabric.
#[derive(Clone)]
pub struct Comm {
    pub(crate) fabric: Arc<Fabric>,
    /// World ranks of the group members, in communicator order.
    pub(crate) group: Arc<Vec<usize>>,
    /// This rank's index within `group`.
    pub(crate) rank: usize,
}

impl Comm {
    /// The world communicator for `world_rank` over `fabric`.
    pub fn world(fabric: Arc<Fabric>, world_rank: usize) -> Comm {
        let p = fabric.size();
        assert!(world_rank < p);
        Comm {
            fabric,
            group: Arc::new((0..p).collect()),
            rank: world_rank,
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// The world rank backing communicator rank `r`.
    #[inline]
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.group[r]
    }

    /// The universe-wide traffic statistics.
    pub fn traffic(&self) -> &crate::fabric::TrafficStats {
        self.fabric.stats()
    }

    /// A [`TrafficScope`] delta guard over **this rank's** send
    /// counters: everything this rank sends between the call and a later
    /// [`TrafficScope::delta`] is captured, per collective kind, without
    /// picking up concurrent traffic from other ranks. The observability
    /// layer uses disjoint scopes to attribute communication to phases;
    /// summed across ranks the deltas partition the universe totals.
    pub fn traffic_scope(&self) -> TrafficScope<'_> {
        self.fabric.stats().scope(self.group[self.rank])
    }

    /// The fabric this communicator runs over.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    // ---------------------------------------------------------------
    // Fallible API
    // ---------------------------------------------------------------

    /// Fallible point-to-point send to communicator rank `dst`.
    pub fn try_send<T: Elem>(&self, dst: usize, data: Vec<T>) -> Result<(), CommError> {
        self.fabric
            .try_send(self.group[self.rank], self.group[dst], data)
    }

    /// Internal send charging the traffic to a specific collective kind.
    #[inline]
    pub(crate) fn send_k<T: Elem>(
        &self,
        dst: usize,
        data: Vec<T>,
        kind: CollectiveKind,
    ) -> Result<(), CommError> {
        self.fabric
            .try_send_kind(self.group[self.rank], self.group[dst], data, kind)
    }

    /// Fallible point-to-point receive from communicator rank `src`.
    pub fn try_recv<T: Elem>(&self, src: usize) -> Result<Vec<T>, CommError> {
        self.fabric.try_recv(self.group[src], self.group[self.rank])
    }

    /// Internal receive running under a specific collective kind's
    /// deadline budget (see [`crate::DeadlinePolicy`]). Collectives use
    /// this so a slow peer is blamed with the operation it stalled.
    #[inline]
    pub(crate) fn recv_k<T: Elem>(
        &self,
        src: usize,
        kind: CollectiveKind,
    ) -> Result<Vec<T>, CommError> {
        self.fabric
            .try_recv_kind(self.group[src], self.group[self.rank], kind)
    }

    /// Fallible dissemination barrier.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        let p = self.size();
        let mut k = 1;
        while k < p {
            let dst = (self.rank + k) % p;
            let src = (self.rank + p - k) % p;
            self.send_k::<u8>(dst, Vec::new(), CollectiveKind::Barrier)?;
            let _ = self.recv_k::<u8>(src, CollectiveKind::Barrier)?;
            k <<= 1;
        }
        Ok(())
    }

    /// Fallible binomial-tree broadcast. The root passes the payload;
    /// other ranks' argument is ignored (pass `Vec::new()`).
    pub fn try_bcast<T: Elem>(&self, root: usize, data: Vec<T>) -> Result<Vec<T>, CommError> {
        self.bcast_k(root, data, CollectiveKind::Bcast)
    }

    /// Broadcast with the traffic charged to `kind` (an allreduce's
    /// broadcast leg is an `Allreduce` for accounting purposes).
    pub(crate) fn bcast_k<T: Elem>(
        &self,
        root: usize,
        data: Vec<T>,
        kind: CollectiveKind,
    ) -> Result<Vec<T>, CommError> {
        let p = self.size();
        if p == 1 {
            return Ok(data);
        }
        let vrank = (self.rank + p - root) % p; // virtual rank, root = 0
        let mut have: Option<Vec<T>> = if vrank == 0 { Some(data) } else { None };
        // Receive from parent.
        if vrank != 0 {
            let mut mask = 1;
            while mask < p {
                if vrank & mask != 0 {
                    let vsrc = vrank & !mask;
                    let src = (vsrc + root) % p;
                    have = Some(self.recv_k(src, kind)?);
                    break;
                }
                mask <<= 1;
            }
        }
        let buf = have.expect("bcast tree logic error");
        // Forward to children: all set bits above my lowest set bit.
        let lowest = if vrank == 0 {
            p.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut mask = lowest >> 1;
        while mask > 0 {
            let vdst = vrank | mask;
            if vdst < p && vdst != vrank {
                let dst = (vdst + root) % p;
                self.send_k(dst, buf.clone(), kind)?;
            }
            mask >>= 1;
        }
        Ok(buf)
    }

    /// Fallible binomial-tree reduce with an elementwise combiner
    /// `op(acc, incoming)`. Returns `Some(result)` on the root.
    pub fn try_reduce<T: Elem>(
        &self,
        root: usize,
        data: Vec<T>,
        op: impl Fn(&mut [T], &[T]) + Copy,
    ) -> Result<Option<Vec<T>>, CommError> {
        self.reduce_k(root, data, op, CollectiveKind::Reduce)
    }

    /// Reduce with the traffic charged to `kind`.
    pub(crate) fn reduce_k<T: Elem>(
        &self,
        root: usize,
        data: Vec<T>,
        op: impl Fn(&mut [T], &[T]) + Copy,
        kind: CollectiveKind,
    ) -> Result<Option<Vec<T>>, CommError> {
        let p = self.size();
        if p == 1 {
            return Ok(Some(data));
        }
        let vrank = (self.rank + p - root) % p;
        let mut acc = data;
        let mut mask = 1;
        while mask < p {
            if vrank & mask == 0 {
                let vsrc = vrank | mask;
                if vsrc < p {
                    let src = (vsrc + root) % p;
                    let incoming: Vec<T> = self.recv_k(src, kind)?;
                    if incoming.len() != acc.len() {
                        // A dropped message desynchronized the channel;
                        // typed and failure-class (see `SizeMismatch`).
                        return Err(CommError::SizeMismatch {
                            src: self.group[src],
                            dst: self.group[self.rank],
                            expected: acc.len(),
                            got: incoming.len(),
                        });
                    }
                    op(&mut acc, &incoming);
                }
            } else {
                let vdst = vrank & !mask;
                let dst = (vdst + root) % p;
                self.send_k(dst, acc, kind)?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Fallible allreduce = reduce to rank 0 + broadcast, both legs
    /// charged to [`CollectiveKind::Allreduce`]: [`Comm::iallreduce`]
    /// completed at once (see there for the combine order and the
    /// output-length check).
    pub fn try_allreduce<T: Elem>(
        &self,
        data: Vec<T>,
        op: impl Fn(&mut [T], &[T]) + Copy + Send + 'static,
    ) -> Result<Vec<T>, CommError> {
        self.iallreduce(data, op).wait()
    }

    /// Fallible ring allgather of variable-size blocks: returns every
    /// rank's block, indexed by communicator rank.
    pub fn try_allgatherv<T: Elem>(&self, data: Vec<T>) -> Result<Vec<Vec<T>>, CommError> {
        let p = self.size();
        let mut blocks: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        blocks[self.rank] = Some(data);
        let right = (self.rank + 1) % p;
        let left = (self.rank + p - 1) % p;
        for step in 0..p.saturating_sub(1) {
            // Send the block that arrived `step` hops ago (own block first).
            let send_idx = (self.rank + p - step) % p;
            let block = blocks[send_idx].clone().expect("ring allgather gap");
            self.send_k(right, block, CollectiveKind::Allgatherv)?;
            let recv_idx = (self.rank + p - step - 1) % p;
            blocks[recv_idx] = Some(self.recv_k(left, CollectiveKind::Allgatherv)?);
        }
        Ok(blocks
            .into_iter()
            .map(|b| b.expect("missing block"))
            .collect())
    }

    /// Fallible reduce-scatter: the input is partitioned into `p`
    /// contiguous blocks of the given lengths (`counts.len() == p`,
    /// `Σ counts == data.len()`); on return each rank holds the
    /// elementwise reduction of its own block across all ranks. The
    /// buffer is split into owned per-destination blocks and handed to
    /// [`Comm::ireduce_scatter_blocks`] (see there for the algorithm and
    /// combine order), completed at once.
    pub fn try_reduce_scatter<T: Elem>(
        &self,
        mut data: Vec<T>,
        counts: &[usize],
        op: impl Fn(&mut [T], &[T]) + Copy + Send + 'static,
    ) -> Result<Vec<T>, CommError> {
        let p = self.size();
        assert_eq!(counts.len(), p, "reduce_scatter needs one count per rank");
        let total: usize = counts.iter().sum();
        assert_eq!(
            total,
            data.len(),
            "reduce_scatter counts must cover the buffer"
        );
        // Back to front, so each `split_off` moves only its own tail.
        let mut blocks: Vec<Vec<T>> = counts
            .iter()
            .rev()
            .map(|&n| data.split_off(data.len() - n))
            .collect();
        blocks.reverse();
        self.ireduce_scatter_blocks(blocks, op).wait()
    }

    /// Fallible direct all-to-all of variable blocks: `blocks[r]` goes to
    /// rank `r`; returns the blocks received, indexed by source rank.
    pub fn try_alltoallv<T: Elem>(&self, blocks: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CommError> {
        let p = self.size();
        assert_eq!(blocks.len(), p, "alltoallv needs one block per rank");
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for (dst, block) in blocks.into_iter().enumerate() {
            if dst == self.rank {
                out[self.rank] = block;
            } else {
                self.send_k(dst, block, CollectiveKind::Alltoallv)?;
            }
        }
        for (src, slot) in out.iter_mut().enumerate() {
            if src != self.rank {
                *slot = self.recv_k(src, CollectiveKind::Alltoallv)?;
            }
        }
        Ok(out)
    }

    /// Fallible gather of variable blocks to `root`; returns
    /// `Some(blocks)` there.
    pub fn try_gatherv<T: Elem>(
        &self,
        root: usize,
        data: Vec<T>,
    ) -> Result<Option<Vec<Vec<T>>>, CommError> {
        if self.rank == root {
            let mut out: Vec<Vec<T>> = (0..self.size()).map(|_| Vec::new()).collect();
            out[root] = data;
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv_k(src, CollectiveKind::Gatherv)?;
                }
            }
            Ok(Some(out))
        } else {
            self.send_k(root, data, CollectiveKind::Gatherv)?;
            Ok(None)
        }
    }

    /// Fallible communicator split: ranks sharing `color` form a new
    /// communicator, ordered by `(key, old rank)` — `MPI_Comm_split`.
    pub fn try_split(&self, color: usize, key: usize) -> Result<Comm, CommError> {
        let triple = vec![color, key, self.rank];
        let all = self.try_allgatherv(triple)?;
        let mut members: Vec<(usize, usize)> = all
            .iter()
            .filter(|t| t[0] == color)
            .map(|t| (t[1], t[2]))
            .collect();
        members.sort_unstable();
        let group: Vec<usize> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("split: caller missing from its own color group");
        Ok(Comm {
            fabric: Arc::clone(&self.fabric),
            group: Arc::new(group),
            rank,
        })
    }

    // ---------------------------------------------------------------
    // Resilience primitives (ULFM-style revoke / agree / shrink)
    // ---------------------------------------------------------------

    /// World ranks of this communicator's members that the failure
    /// detector currently believes alive, in communicator order.
    pub fn live_members(&self) -> Vec<usize> {
        self.group
            .iter()
            .copied()
            .filter(|&r| self.fabric.is_alive(r))
            .collect()
    }

    /// Revokes the fabric's data plane (`MPI_Comm_revoke`): every rank
    /// blocked in — or about to enter — a data-plane operation fails
    /// fast with [`CommError::Revoked`], flushing all survivors out of
    /// whatever collective they were in so they can join
    /// [`Comm::try_agree`]. Idempotent; typically called by the first
    /// rank that observes a `PeerClosed`/`Timeout`.
    pub fn revoke(&self) {
        self.fabric.revoke();
    }

    /// Has the fabric been revoked?
    pub fn is_revoked(&self) -> bool {
        self.fabric.is_revoked()
    }

    /// Fault-tolerant agreement (`MPIX_Comm_agree`): returns the sorted
    /// **world ranks** of this communicator's surviving members,
    /// consistently on every live rank.
    ///
    /// Leader-based protocol over the reliable control plane:
    /// the lowest live member acts as leader, collects one vote from
    /// every other live member, intersects voters with the detector's
    /// live set, then (a) advances the fabric epoch so stale in-flight
    /// data from the aborted collective is discarded, (b) clears the
    /// revocation, and (c) distributes the survivor list. If the leader
    /// itself dies mid-protocol, voters observe `PeerClosed` on the
    /// control plane, re-elect the next-lowest live rank, and retry —
    /// so agreement tolerates failures *during* agreement.
    ///
    /// Contract: every surviving member must call `try_agree` after a
    /// failure is detected (the usual collective contract); ranks that
    /// die before voting are excluded from the result. A member already
    /// retired by its peers (a demoted straggler) gets
    /// [`CommError::Demoted`]: it has no vote to cast.
    pub fn try_agree(&self) -> Result<Vec<usize>, CommError> {
        let me = self.group[self.rank];
        loop {
            if !self.fabric.is_alive(me) {
                // Without this check a retired caller would spin: its
                // own ctrl sends fail, which the voter branch below
                // reads as a dead leader and retries forever.
                return Err(CommError::Demoted { rank: me });
            }
            let live = self.live_members();
            let leader = *live.iter().min().expect("caller is alive, group nonempty");
            if leader == me {
                // Collect one vote from every member currently live.
                let mut voted = vec![me];
                for &r in live.iter().filter(|&&r| r != me) {
                    match self.fabric.ctrl_recv::<u64>(r, me) {
                        Ok(v) => voted.push(v[0] as usize),
                        // Died before voting: excluded from survivors.
                        Err(CommError::PeerClosed { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                let mut survivors: Vec<usize> = voted
                    .into_iter()
                    .filter(|&r| self.fabric.is_alive(r))
                    .collect();
                survivors.sort_unstable();
                // Quarantine stale traffic, then re-open the data plane,
                // strictly in this order: once a survivor learns the
                // outcome it may immediately resume data-plane sends,
                // which must land in the new epoch on an open fabric.
                self.fabric.bump_epoch();
                self.fabric.clear_revocation();
                let payload: Vec<u64> = survivors.iter().map(|&r| r as u64).collect();
                for &r in &survivors {
                    if r != me {
                        // A rank dying between the decision and this send
                        // stays in the agreed list (matching ULFM: agree
                        // guarantees consistency, not freshness); the next
                        // data-plane error triggers a fresh agreement.
                        let _ = self.fabric.ctrl_send(me, r, payload.clone());
                    }
                }
                return Ok(survivors);
            } else {
                // Vote, then wait for the leader's verdict.
                if self.fabric.ctrl_send(me, leader, vec![me as u64]).is_err() {
                    continue; // leader already dead: re-elect
                }
                match self.fabric.ctrl_recv::<u64>(leader, me) {
                    Ok(payload) => {
                        return Ok(payload.into_iter().map(|r| r as usize).collect());
                    }
                    Err(CommError::PeerClosed { .. }) => continue, // leader died: retry
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// Collective max-agreement of a scalar verdict over the reliable
    /// *control plane* (star through the lowest rank): every member
    /// learns the maximum of all members' values. The ABFT layer uses
    /// this so the corruption verdict itself cannot be corrupted by the
    /// faulty data plane — all ranks of a checked kernel reach the same
    /// accept/reject decision and stay collectively aligned when the
    /// solver retries a poisoned contraction. A member dying
    /// mid-verdict surfaces as [`CommError::PeerClosed`], handing
    /// control to the failure-recovery path.
    pub fn try_verdict_max(&self, value: f64) -> Result<f64, CommError> {
        if self.size() == 1 {
            return Ok(value);
        }
        let me = self.group[self.rank];
        let root = self.group[0];
        if me == root {
            let mut acc = value;
            for &r in self.group.iter().skip(1) {
                let v = self.fabric.ctrl_recv::<f64>(r, me)?;
                acc = acc.max(v[0]);
            }
            for &r in self.group.iter().skip(1) {
                self.fabric.ctrl_send(me, r, vec![acc])?;
            }
            Ok(acc)
        } else {
            self.fabric.ctrl_send(me, root, vec![value])?;
            Ok(self.fabric.ctrl_recv::<f64>(root, me)?[0])
        }
    }

    /// Shrinks the communicator to the agreed survivor set
    /// (`MPIX_Comm_shrink`): builds a dense communicator whose group is
    /// this communicator's members restricted to `survivors` (world
    /// ranks, any order), preserving relative order. Communication-free —
    /// every rank derives the same group from the same agreed list.
    /// Returns `None` if the calling rank is not among the survivors.
    pub fn shrink(&self, survivors: &[usize]) -> Option<Comm> {
        let me = self.group[self.rank];
        let group: Vec<usize> = self
            .group
            .iter()
            .copied()
            .filter(|r| survivors.contains(r))
            .collect();
        let rank = group.iter().position(|&r| r == me)?;
        Some(Comm {
            fabric: Arc::clone(&self.fabric),
            group: Arc::new(group),
            rank,
        })
    }
}

/// Elementwise sum combiner for numeric payloads.
pub fn sum_op<T: Copy + std::ops::AddAssign + Send + 'static>(acc: &mut [T], inc: &[T]) {
    for (a, &b) in acc.iter_mut().zip(inc) {
        *a += b;
    }
}

/// Elementwise max combiner.
pub fn max_op<T: Copy + PartialOrd + Send + 'static>(acc: &mut [T], inc: &[T]) {
    for (a, &b) in acc.iter_mut().zip(inc) {
        if b > *a {
            *a = b;
        }
    }
}
