//! Block allocation and victim selection.
//!
//! The device is partitioned the way the paper's Figure 3 shows: *data
//! blocks* hold user pages, *translation blocks* hold the mapping table.
//! One active block per translation class — and one per *data stream* —
//! absorbs programs; sealed blocks are indexed by valid-page count so the
//! greedy garbage collector finds its victim ("the block with the fewest
//! valid pages") in O(1).
//!
//! Data streams are the hot/cold separation device: the environment
//! classifies each host write by temperature and routes it to a stream, so
//! pages with similar lifetimes share blocks and blocks die together
//! instead of trapping one long-lived page each. GC migrations land in the
//! coldest stream (stream 0). A single stream reproduces the original
//! single-active allocator bit for bit. Stream assignment is volatile:
//! [`BlockManager::rebuild`] seals every partially-written block and
//! restarts all streams empty, so crash recovery never depends on it.
//!
//! The valid-count index is allocation-free: each bucket is an intrusive
//! doubly-linked list threaded through dense per-block `prev`/`next` arrays,
//! and a bucket-occupancy bitmap locates the lowest non-empty bucket with a
//! `trailing_zeros`. Victim *order* is nevertheless identical to the
//! original per-bucket `BTreeSet` index (ascending block id within a
//! bucket), which the golden fixed-seed fingerprints depend on: picks scan
//! the — O(bucket) but allocation-free — list for the minimum id.
//!
//! The manager is built for one [`GcPolicy`]. Only the policies with a
//! static wear-leveling arm (wear-aware, and windowed with more than one
//! stream) keep the wear-ordered index of sealed blocks that the arm
//! reads; the others never pay for it on a seal or a claim.

use std::collections::{BTreeSet, VecDeque};

use tpftl_flash::{BlockId, Flash, Ppn};

use crate::config::GcPolicy;
use crate::{FtlError, Result};

/// Candidates examined per pick for the non-greedy policies — a bounded
/// candidate set, as sampling-based GC schemes use on real devices.
const CANDIDATE_CAP: usize = 64;

/// Null link in the intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// Wear spread the windowed policy tolerates before its static
/// wear-leveling arm turns over the least-worn sealed block, and the rate
/// limit (picks between turn-overs) it runs at (see
/// [`BlockManager::static_turnover`]). Both are tighter than the
/// wear-aware policy's — stream separation makes frozen cold blocks the
/// rule rather than the exception, so the spread grows faster and the
/// turn-over must keep pace.
const WINDOWED_WEAR_DELTA: u64 = 4;
const WINDOWED_TURNOVER_RATE: u32 = 4;

/// Rate limit of the wear-aware policy's static arm: every 8th pick, as
/// the original single-policy implementation hardcoded.
const WEAR_AWARE_TURNOVER_RATE: u32 = 8;

/// What a block is currently used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// In the free pool.
    Free,
    /// Actively absorbing data-page programs.
    ActiveData,
    /// Actively absorbing translation-page programs.
    ActiveTranslation,
    /// Fully programmed data block.
    SealedData,
    /// Fully programmed translation block.
    SealedTranslation,
    /// Picked as a GC victim; its pages are being migrated and it is no
    /// longer indexed in the valid-count buckets.
    Collecting,
    /// Managed directly by a block-mapping FTL; never indexed for the
    /// page-level garbage collector.
    Raw,
}

/// The two allocation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocClass {
    /// User data pages.
    Data,
    /// Translation pages.
    Translation,
}

/// Allocator and GC victim index over the device's blocks.
#[derive(Debug, Clone)]
pub struct BlockManager {
    kind: Vec<BlockKind>,
    free: VecDeque<BlockId>,
    /// Active data block per stream (index 0 = coldest). Always non-empty.
    active_data: Vec<Option<BlockId>>,
    active_trans: Option<BlockId>,
    /// Head of the intrusive list for bucket `v` = sealed blocks with
    /// exactly `v` valid pages ([`NIL`] when empty).
    bucket_head: Vec<u32>,
    /// Intrusive list links, indexed by block id ([`NIL`]-terminated).
    list_prev: Vec<u32>,
    list_next: Vec<u32>,
    /// One bit per bucket: set iff the bucket is non-empty, so the lowest
    /// occupied bucket is a word scan plus `trailing_zeros`.
    occupancy: Vec<u64>,
    /// Blocks currently indexed in a bucket.
    sealed_count: usize,
    pages_per_block: usize,
    /// Monotonic event counter; stamps seals for cost-benefit aging.
    seq: u64,
    /// Seal timestamp per block.
    seal_seq: Vec<u64>,
    /// Valid count per sealed block (mirrors the bucket it sits in).
    sealed_valid: Vec<u32>,
    /// Erase cycles per block (mirrors the flash wear counters).
    wear: Vec<u32>,
    /// The victim-selection policy this manager was built for.
    policy: GcPolicy,
    /// Sealed blocks ordered by wear, read only by the static
    /// wear-leveling arm; present exactly when [`runs_static_arm`] holds.
    wear_index: Option<BTreeSet<(u32, BlockId)>>,
    /// Highest erase count any block has reached.
    max_wear: u32,
    /// Picks since the last static wear-leveling turn-over (rate limiter).
    picks_since_static: u32,
}

/// Whether `policy` over `streams` data streams runs the static
/// wear-leveling arm ([`BlockManager::static_turnover`]), the only reader
/// of the wear index.
fn runs_static_arm(policy: GcPolicy, streams: usize) -> bool {
    match policy {
        GcPolicy::WearAware { .. } => true,
        GcPolicy::Windowed { .. } => streams > 1,
        GcPolicy::Greedy | GcPolicy::CostBenefit => false,
    }
}

impl BlockManager {
    /// Creates a single-stream manager over `num_blocks` erased blocks.
    #[cfg_attr(not(test), expect(dead_code))]
    pub fn new(num_blocks: usize, pages_per_block: usize, policy: GcPolicy) -> Self {
        Self::with_streams(num_blocks, pages_per_block, 1, policy)
    }

    /// Creates a manager with `streams` independent active data blocks
    /// (clamped to at least one) that picks victims by `policy`. Stream 0
    /// is the coldest.
    pub fn with_streams(
        num_blocks: usize,
        pages_per_block: usize,
        streams: u32,
        policy: GcPolicy,
    ) -> Self {
        let streams = streams.max(1) as usize;
        Self {
            kind: vec![BlockKind::Free; num_blocks],
            free: (0..num_blocks as BlockId).collect(),
            active_data: vec![None; streams],
            active_trans: None,
            bucket_head: vec![NIL; pages_per_block + 1],
            list_prev: vec![NIL; num_blocks],
            list_next: vec![NIL; num_blocks],
            occupancy: vec![0; pages_per_block / 64 + 1],
            sealed_count: 0,
            pages_per_block,
            seq: 0,
            seal_seq: vec![0; num_blocks],
            sealed_valid: vec![0; num_blocks],
            wear: vec![0; num_blocks],
            policy,
            wear_index: runs_static_arm(policy, streams).then(BTreeSet::new),
            max_wear: 0,
            picks_since_static: 0,
        }
    }

    /// Reconstructs the manager from an existing flash device at mount
    /// time. Untouched blocks go to the free pool; any block with
    /// programmed pages is conservatively sealed (there are no actives
    /// after a restart — stream assignment is volatile and every stream
    /// restarts empty), classified as a translation block if it holds a
    /// valid translation page. Wear is seeded from the device's per-block
    /// erase counters.
    pub fn rebuild(flash: &Flash, streams: u32, policy: GcPolicy) -> Result<Self> {
        let geom = flash.geometry().clone();
        let mut mgr = Self::with_streams(geom.num_blocks, geom.pages_per_block, streams, policy);
        mgr.free.clear();
        for b in 0..geom.num_blocks as BlockId {
            let wear = flash.erase_count(b).map_err(FtlError::Flash)? as u32;
            mgr.wear[b as usize] = wear;
            mgr.max_wear = mgr.max_wear.max(wear);
            let free_pages = flash.free_pages_in(b).map_err(FtlError::Flash)?;
            if free_pages == geom.pages_per_block {
                mgr.kind[b as usize] = BlockKind::Free;
                mgr.free.push_back(b);
                continue;
            }
            let valid = flash.valid_pages_in(b).map_err(FtlError::Flash)?;
            let is_translation = flash
                .valid_pages(b)
                .any(|(ppn, _)| flash.peek_translation_payload(ppn).is_some());
            mgr.kind[b as usize] = if is_translation {
                BlockKind::SealedTranslation
            } else {
                BlockKind::SealedData
            };
            mgr.index_sealed(b, valid);
        }
        Ok(mgr)
    }

    /// Indexes the just-sealed `block`, holding `valid` valid pages, for
    /// the collector: valid-count bucket, seal stamp, and the wear index
    /// if the policy keeps one.
    fn index_sealed(&mut self, block: BlockId, valid: usize) {
        self.bucket_insert(block, valid);
        self.seq += 1;
        self.seal_seq[block as usize] = self.seq;
        self.sealed_valid[block as usize] = valid as u32;
        if let Some(index) = &mut self.wear_index {
            index.insert((self.wear[block as usize], block));
        }
    }

    // ---- Intrusive valid-count buckets --------------------------------------

    /// Links `block` at the head of bucket `v`. O(1), no allocation.
    fn bucket_insert(&mut self, block: BlockId, v: usize) {
        let b = block as usize;
        debug_assert!(self.list_prev[b] == NIL && self.list_next[b] == NIL);
        let head = self.bucket_head[v];
        self.list_next[b] = head;
        if head != NIL {
            self.list_prev[head as usize] = block;
        }
        self.bucket_head[v] = block;
        self.occupancy[v / 64] |= 1 << (v % 64);
        self.sealed_count += 1;
    }

    /// Unlinks `block` from bucket `v`. O(1), no allocation.
    fn bucket_remove(&mut self, block: BlockId, v: usize) {
        let b = block as usize;
        let (prev, next) = (self.list_prev[b], self.list_next[b]);
        if prev != NIL {
            self.list_next[prev as usize] = next;
        } else {
            debug_assert_eq!(self.bucket_head[v], block, "block missing from its bucket");
            self.bucket_head[v] = next;
        }
        if next != NIL {
            self.list_prev[next as usize] = prev;
        }
        self.list_prev[b] = NIL;
        self.list_next[b] = NIL;
        if self.bucket_head[v] == NIL {
            self.occupancy[v / 64] &= !(1 << (v % 64));
        }
        self.sealed_count -= 1;
    }

    /// Lowest non-empty bucket with fewer than `limit` valid pages.
    fn min_occupied_bucket(&self, limit: usize) -> Option<usize> {
        for (w, &bits) in self.occupancy.iter().enumerate() {
            let base = w * 64;
            if base >= limit {
                break;
            }
            let mut bits = bits;
            if limit - base < 64 {
                bits &= (1u64 << (limit - base)) - 1;
            }
            if bits != 0 {
                return Some(base + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Smallest block id in bucket `v` (the `BTreeSet` index returned ids
    /// in ascending order; picks preserve that for replay determinism).
    fn min_block_in_bucket(&self, v: usize) -> Option<BlockId> {
        let mut min = NIL;
        let mut cur = self.bucket_head[v];
        while cur != NIL {
            min = min.min(cur);
            cur = self.list_next[cur as usize];
        }
        (min != NIL).then_some(min)
    }

    /// Appends bucket `v`'s smallest ids, ascending, to `out[start..]`,
    /// capping the total at [`CANDIDATE_CAP`]; returns the new length.
    fn append_bucket_sorted(&self, v: usize, out: &mut [BlockId], start: usize) -> usize {
        let mut len = start;
        let mut cur = self.bucket_head[v];
        while cur != NIL {
            let pos = start + out[start..len].partition_point(|&x| x < cur);
            if len < CANDIDATE_CAP {
                out.copy_within(pos..len, pos + 1);
                out[pos] = cur;
                len += 1;
            } else if pos < CANDIDATE_CAP {
                out.copy_within(pos..CANDIDATE_CAP - 1, pos + 1);
                out[pos] = cur;
            }
            cur = self.list_next[cur as usize];
        }
        len
    }

    /// Fills `out` with up to [`CANDIDATE_CAP`] reclaimable blocks in
    /// (valid count asc, block id asc) order — exactly the first
    /// `CANDIDATE_CAP` entries the per-bucket `BTreeSet` index would have
    /// yielded — and returns how many were written. No allocation.
    fn collect_candidates(&self, out: &mut [BlockId; CANDIDATE_CAP]) -> usize {
        let mut n = 0;
        for (w, &word) in self.occupancy.iter().enumerate() {
            let base = w * 64;
            if base >= self.pages_per_block {
                break;
            }
            let mut bits = word;
            if self.pages_per_block - base < 64 {
                bits &= (1u64 << (self.pages_per_block - base)) - 1;
            }
            while bits != 0 {
                let v = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                n = self.append_bucket_sorted(v, out, n);
                if n == CANDIDATE_CAP {
                    return n;
                }
            }
        }
        n
    }

    /// Number of blocks in the free pool.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Current use of `block`.
    #[cfg_attr(not(test), expect(dead_code))]
    pub fn kind(&self, block: BlockId) -> BlockKind {
        self.kind[block as usize]
    }

    /// Returns the PPN to program next for `class`, rotating in a fresh
    /// free block (and sealing the exhausted one) when necessary. Data
    /// allocations land in the coldest stream; temperature-routed callers
    /// use [`BlockManager::alloc_data_page`] directly.
    ///
    /// The caller must program the returned page before asking again.
    pub fn alloc_page(&mut self, class: AllocClass, flash: &Flash) -> Result<Ppn> {
        match class {
            AllocClass::Data => self.alloc_data_page(0, flash),
            AllocClass::Translation => self.alloc_translation_page(flash),
        }
    }

    /// Number of data streams this manager partitions writes into.
    pub fn streams(&self) -> usize {
        self.active_data.len()
    }

    /// Returns the PPN to program next for a data page of `stream`
    /// (clamped to the configured stream count). Each stream keeps its own
    /// active block, so pages of different streams never share a block.
    pub fn alloc_data_page(&mut self, stream: usize, flash: &Flash) -> Result<Ppn> {
        let stream = stream.min(self.active_data.len() - 1);
        if let Some(b) = self.active_data[stream] {
            if let Some(ppn) = flash.next_free_ppn(b) {
                return Ok(ppn);
            }
            self.seal_block(b, BlockKind::SealedData, flash)?;
        }
        let b = self.free.pop_front().ok_or(FtlError::DeviceFull)?;
        self.kind[b as usize] = BlockKind::ActiveData;
        self.active_data[stream] = Some(b);
        flash.next_free_ppn(b).ok_or(FtlError::DeviceFull) // A free-pool block is always erased.
    }

    fn alloc_translation_page(&mut self, flash: &Flash) -> Result<Ppn> {
        if let Some(b) = self.active_trans {
            if let Some(ppn) = flash.next_free_ppn(b) {
                return Ok(ppn);
            }
            self.seal_block(b, BlockKind::SealedTranslation, flash)?;
        }
        let b = self.free.pop_front().ok_or(FtlError::DeviceFull)?;
        self.kind[b as usize] = BlockKind::ActiveTranslation;
        self.active_trans = Some(b);
        flash.next_free_ppn(b).ok_or(FtlError::DeviceFull)
    }

    /// Seals an exhausted active block and indexes it for the collector.
    fn seal_block(&mut self, b: BlockId, sealed_kind: BlockKind, flash: &Flash) -> Result<()> {
        self.kind[b as usize] = sealed_kind;
        let valid = flash.valid_pages_in(b).map_err(FtlError::Flash)?;
        self.index_sealed(b, valid);
        Ok(())
    }

    /// Re-indexes a sealed block after one of its pages was invalidated.
    /// `new_valid` is the block's valid count *after* the invalidation.
    pub fn on_invalidated(&mut self, block: BlockId, new_valid: usize) {
        match self.kind[block as usize] {
            BlockKind::SealedData | BlockKind::SealedTranslation => {
                // The page was valid before, so the block was in bucket
                // `new_valid + 1`.
                self.bucket_remove(block, new_valid + 1);
                self.bucket_insert(block, new_valid);
                self.sealed_valid[block as usize] = new_valid as u32;
            }
            // Active blocks are indexed when sealed; free blocks have no
            // valid pages to invalidate.
            _ => {}
        }
    }

    /// Picks the GC victim according to the manager's policy. Fully-valid
    /// blocks are only ever returned by the static wear-leveling path; for
    /// the normal policies `None` means the device is genuinely full.
    pub fn pick_victim(&mut self) -> Option<(BlockId, AllocClass)> {
        let b = match self.policy {
            GcPolicy::Greedy => self.pick_greedy()?,
            GcPolicy::CostBenefit => self.pick_cost_benefit()?,
            GcPolicy::WearAware { max_wear_delta } => self.pick_wear_aware(max_wear_delta)?,
            GcPolicy::Windowed { window } => self.pick_windowed(window)?,
        };
        self.claim(b)
    }

    fn claim(&mut self, b: BlockId) -> Option<(BlockId, AllocClass)> {
        self.bucket_remove(b, self.sealed_valid[b as usize] as usize);
        if let Some(index) = &mut self.wear_index {
            index.remove(&(self.wear[b as usize], b));
        }
        let class = match self.kind[b as usize] {
            BlockKind::SealedData => AllocClass::Data,
            BlockKind::SealedTranslation => AllocClass::Translation,
            k => unreachable!("claimed block has kind {k:?}"),
        };
        self.kind[b as usize] = BlockKind::Collecting;
        Some((b, class))
    }

    fn pick_greedy(&self) -> Option<BlockId> {
        let v = self.min_occupied_bucket(self.pages_per_block)?;
        self.min_block_in_bucket(v)
    }

    fn pick_cost_benefit(&self) -> Option<BlockId> {
        let mut cand = [0 as BlockId; CANDIDATE_CAP];
        let n = self.collect_candidates(&mut cand);
        let np = self.pages_per_block as f64;
        let mut best: Option<(f64, BlockId)> = None;
        for &b in &cand[..n] {
            let valid = self.sealed_valid[b as usize] as f64;
            if valid == 0.0 {
                return Some(b); // free reclaim, nothing can beat it
            }
            let u = valid / np;
            let age = (self.seq - self.seal_seq[b as usize]) as f64 + 1.0;
            let score = (1.0 - u) / (2.0 * u) * age;
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, b));
            }
        }
        best.map(|(_, b)| b)
    }

    /// Static wear leveling, shared by the wear-aware and windowed
    /// policies: when the wear spread exceeds `max_wear_delta`, turn over
    /// the least-worn sealed block so its cold data moves onto worn blocks
    /// and the block rejoins the hot rotation. Such a block is usually
    /// fully valid (that is *why* it never wears), so the turn-over frees
    /// little; rate-limit it to every 8th pick so the collector always
    /// makes progress in between, and defer it entirely while the free
    /// pool is critically low — migrating a fully-valid victim can seal
    /// both the data and the translation active block (two fresh-block
    /// pops) before its erase returns one, so firing it with fewer than
    /// two free blocks can exhaust the pool mid-collection.
    fn static_turnover(&mut self, max_wear_delta: u64, rate: u32) -> Option<BlockId> {
        self.picks_since_static += 1;
        if self.picks_since_static < rate || self.free.len() < 2 {
            return None;
        }
        let index = self
            .wear_index
            .as_ref()
            .expect("a policy with a static arm keeps the wear index");
        let &(wear, b) = index.iter().next()?;
        if (self.max_wear as u64).saturating_sub(wear as u64) > max_wear_delta {
            self.picks_since_static = 0;
            return Some(b);
        }
        None
    }

    fn pick_wear_aware(&mut self, max_wear_delta: u64) -> Option<BlockId> {
        if let Some(b) = self.static_turnover(max_wear_delta, WEAR_AWARE_TURNOVER_RATE) {
            return Some(b);
        }
        // Dynamic: among the least-valid candidates, prefer the least worn.
        let mut cand = [0 as BlockId; CANDIDATE_CAP];
        let n = self.collect_candidates(&mut cand);
        cand[..n]
            .iter()
            .copied()
            .min_by_key(|&b| (self.sealed_valid[b as usize], self.wear[b as usize], b))
    }

    /// Windowed cost-benefit: scores only the first `window` entries of
    /// the candidate order (valid asc, id asc) — i.e. a bounded window of
    /// the min-valid buckets — by `(1 − u) / 2u · age`, breaking exact
    /// score ties toward the least-worn block (then the smaller id). A
    /// zero-valid candidate is a free reclaim and wins outright. With
    /// `window == 1` the single candidate *is* the greedy victim, so the
    /// policy degenerates to [`GcPolicy::Greedy`] exactly — the golden
    /// test pins that identity bit for bit. With more than one stream the
    /// static wear-leveling arm (shared with the wear-aware policy, at
    /// [`WINDOWED_WEAR_DELTA`]/[`WINDOWED_TURNOVER_RATE`]) engages first:
    /// stream separation freezes cold blocks at low wear forever (they
    /// stay nearly fully valid, so no valid-count policy ever collects
    /// them), and without the turn-over the erase spread grows without
    /// bound. Single-stream windowed has no frozen-block problem — every
    /// stream shares one active block — so it stays a pure victim-choice
    /// policy there and the greedy equivalence is structural, not a
    /// workload accident.
    fn pick_windowed(&mut self, window: u32) -> Option<BlockId> {
        if self.streams() > 1 {
            if let Some(b) = self.static_turnover(WINDOWED_WEAR_DELTA, WINDOWED_TURNOVER_RATE) {
                return Some(b);
            }
        }
        let mut cand = [0 as BlockId; CANDIDATE_CAP];
        let n = self
            .collect_candidates(&mut cand)
            .min(window.max(1) as usize);
        let np = self.pages_per_block as f64;
        let mut best: Option<(f64, u32, BlockId)> = None;
        for &b in &cand[..n] {
            let valid = self.sealed_valid[b as usize] as f64;
            if valid == 0.0 {
                return Some(b); // free reclaim, nothing can beat it
            }
            let u = valid / np;
            let age = (self.seq - self.seal_seq[b as usize]) as f64 + 1.0;
            let score = (1.0 - u) / (2.0 * u) * age;
            let wear = self.wear[b as usize];
            if best.is_none_or(|(s, w, i)| score > s || (score == s && (wear, b) < (w, i))) {
                best = Some((score, wear, b));
            }
        }
        best.map(|(_, _, b)| b)
    }

    /// Returns an erased block to the free pool.
    pub fn on_erased(&mut self, block: BlockId) {
        debug_assert!(matches!(self.kind[block as usize], BlockKind::Collecting));
        self.kind[block as usize] = BlockKind::Free;
        let w = &mut self.wear[block as usize];
        *w += 1;
        self.max_wear = self.max_wear.max(*w);
        self.free.push_back(block);
    }

    /// Highest erase count any block has reached.
    pub fn max_wear(&self) -> u64 {
        self.max_wear as u64
    }

    /// Seals the current cold-stream active block of `class` without
    /// allocating a replacement (test hook for precise sealed states).
    #[cfg(test)]
    pub(crate) fn seal_active(&mut self, flash: &Flash, class: AllocClass) {
        let (taken, sealed_kind) = match class {
            AllocClass::Data => (self.active_data[0].take(), BlockKind::SealedData),
            AllocClass::Translation => (self.active_trans.take(), BlockKind::SealedTranslation),
        };
        let b = taken.expect("an active block to seal");
        self.kind[b as usize] = sealed_kind;
        let valid = flash.valid_pages_in(b).expect("block in range");
        self.index_sealed(b, valid);
    }

    /// Number of sealed blocks currently indexed for collection.
    #[cfg_attr(not(test), expect(dead_code))]
    pub fn sealed_blocks(&self) -> usize {
        self.sealed_count
    }

    /// Claims a whole free block for direct management by a block-mapping
    /// FTL; it is never indexed for the page-level collector.
    pub fn take_raw_block(&mut self) -> Result<BlockId> {
        let b = self.free.pop_front().ok_or(FtlError::DeviceFull)?;
        self.kind[b as usize] = BlockKind::Raw;
        Ok(b)
    }

    /// Returns an erased raw block to the free pool.
    pub fn release_raw_block(&mut self, block: BlockId) {
        debug_assert!(matches!(self.kind[block as usize], BlockKind::Raw));
        self.kind[block as usize] = BlockKind::Free;
        self.free.push_back(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpftl_flash::{FlashGeometry, FlashTopology, OpPurpose};

    fn flash4() -> Flash {
        Flash::new(FlashGeometry {
            page_bytes: 4096,
            pages_per_block: 4,
            num_blocks: 4,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: FlashTopology::default(),
        })
        .unwrap()
    }

    #[test]
    fn alloc_rotates_and_seals() {
        let mut flash = flash4();
        let mut mgr = BlockManager::new(4, 4, GcPolicy::Greedy);
        assert_eq!(mgr.free_blocks(), 4);
        // Fill one block's worth of data pages.
        for i in 0..4u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            assert_eq!(ppn, i);
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        assert_eq!(mgr.kind(0), BlockKind::ActiveData);
        // Next alloc seals block 0 and rotates to block 1.
        let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
        assert_eq!(ppn, 4);
        assert_eq!(mgr.kind(0), BlockKind::SealedData);
        assert_eq!(mgr.kind(1), BlockKind::ActiveData);
        assert_eq!(mgr.free_blocks(), 2);
        assert_eq!(mgr.sealed_blocks(), 1);
    }

    #[test]
    fn data_and_translation_use_separate_actives() {
        let flash = flash4();
        let mut mgr = BlockManager::new(4, 4, GcPolicy::Greedy);
        let d = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
        let t = mgr.alloc_page(AllocClass::Translation, &flash).unwrap();
        assert_ne!(
            flash.geometry().block_of(d),
            flash.geometry().block_of(t),
            "classes must not share a block"
        );
    }

    #[test]
    fn victim_is_min_valid_sealed() {
        let mut flash = flash4();
        let mut mgr = BlockManager::new(4, 4, GcPolicy::Greedy);
        // Seal two data blocks.
        for i in 0..8u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        let _ = mgr.alloc_page(AllocClass::Data, &flash).unwrap(); // seals block 1
                                                                   // Invalidate 3 pages of block 1, 1 page of block 0.
        for ppn in [4u32, 5, 6] {
            flash.invalidate(ppn).unwrap();
            mgr.on_invalidated(1, flash.valid_pages_in(1).unwrap());
        }
        flash.invalidate(0).unwrap();
        mgr.on_invalidated(0, flash.valid_pages_in(0).unwrap());
        let (victim, class) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 1, "block 1 has fewer valid pages");
        assert_eq!(class, AllocClass::Data);
        // Block 0 is next.
        assert_eq!(mgr.pick_victim().unwrap().0, 0);
        // Nothing else is sealed.
        assert!(mgr.pick_victim().is_none());
    }

    #[test]
    fn fully_valid_blocks_never_picked() {
        let mut flash = flash4();
        let mut mgr = BlockManager::new(4, 4, GcPolicy::Greedy);
        for i in 0..4u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        let _ = mgr.alloc_page(AllocClass::Data, &flash).unwrap(); // seals block 0, fully valid
        assert!(mgr.pick_victim().is_none());
    }

    #[test]
    fn erase_returns_to_pool() {
        let mut flash = flash4();
        let mut mgr = BlockManager::new(4, 4, GcPolicy::Greedy);
        for i in 0..4u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        let _ = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
        for ppn in 0..4u32 {
            flash.invalidate(ppn).unwrap();
            mgr.on_invalidated(0, flash.valid_pages_in(0).unwrap());
        }
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 0);
        flash.erase_block(0, OpPurpose::GcData).unwrap();
        mgr.on_erased(0);
        assert_eq!(mgr.kind(0), BlockKind::Free);
        assert_eq!(mgr.free_blocks(), 3);
    }

    /// Seals `n` data blocks with `valid[i]` valid pages each, in a
    /// manager that picks by `policy`.
    fn sealed_setup(valid: &[usize], policy: GcPolicy) -> (Flash, BlockManager) {
        let n = valid.len();
        let mut flash = Flash::new(FlashGeometry {
            page_bytes: 4096,
            pages_per_block: 4,
            num_blocks: n + 1,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: FlashTopology::default(),
        })
        .unwrap();
        let mut mgr = BlockManager::new(n + 1, 4, policy);
        for (i, &v) in valid.iter().enumerate() {
            let b = seal_with(&mut mgr, &mut flash, v);
            assert_eq!(b, i as BlockId);
        }
        (flash, mgr)
    }

    /// Fills the next block the allocator hands out, leaves `valid` pages
    /// valid, seals it, and returns its id.
    fn seal_with(mgr: &mut BlockManager, flash: &mut Flash, valid: usize) -> BlockId {
        let mut first = 0;
        for p in 0..4u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, flash).unwrap();
            if p == 0 {
                first = ppn;
            }
            flash.program_page(ppn, ppn, OpPurpose::HostData).unwrap();
        }
        let block = flash.geometry().block_of(first);
        for p in 0..(4 - valid) as u32 {
            flash.invalidate(first + p).unwrap();
            mgr.on_invalidated(block, flash.valid_pages_in(block).unwrap());
        }
        mgr.seal_active(flash, AllocClass::Data);
        block
    }

    /// Claims the greedy victim, whatever the manager's policy (and
    /// without advancing its static arm), and erases it, returning it to
    /// the pool with one more wear cycle.
    fn churn_once(mgr: &mut BlockManager, flash: &mut Flash) -> BlockId {
        let (victim, _) = mgr.claim(mgr.pick_greedy().unwrap()).unwrap();
        for (ppn, _) in flash.valid_pages(victim).collect::<Vec<_>>() {
            flash.invalidate(ppn).unwrap();
        }
        flash.erase_block(victim, OpPurpose::GcData).unwrap();
        mgr.on_erased(victim);
        victim
    }

    #[test]
    fn cost_benefit_prefers_older_block_at_equal_utilization() {
        // Blocks 0 and 1 both have 2 valid pages; 0 was sealed earlier
        // (older age) so cost-benefit must pick it; block 2 is hot-full.
        let (_flash, mut mgr) = sealed_setup(&[2, 2, 4], GcPolicy::CostBenefit);
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 0);
    }

    #[test]
    fn cost_benefit_takes_free_reclaims_immediately() {
        let (_flash, mut mgr) = sealed_setup(&[2, 0, 3], GcPolicy::CostBenefit);
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 1, "a zero-valid block is a free win");
    }

    #[test]
    fn wear_aware_dynamic_prefers_less_worn_at_equal_valid() {
        // 4-block device. Wear block 0 once, then seal every block with
        // one valid page: all tie on valid count, wear differs.
        let mut flash = Flash::new(FlashGeometry {
            page_bytes: 4096,
            pages_per_block: 4,
            num_blocks: 4,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: FlashTopology::default(),
        })
        .unwrap();
        let mut mgr = BlockManager::new(
            4,
            4,
            GcPolicy::WearAware {
                max_wear_delta: 100,
            },
        );
        assert_eq!(seal_with(&mut mgr, &mut flash, 1), 0);
        assert_eq!(churn_once(&mut mgr, &mut flash), 0); // wear[0] = 1
                                                         // Free queue is now [1, 2, 3, 0]: seal all four with 1 valid page.
        for _ in 0..4 {
            seal_with(&mut mgr, &mut flash, 1);
        }
        // Greedy would take block 0 (smallest id in the bucket)...
        assert_eq!(mgr.pick_greedy(), Some(0));
        // ...wear-aware avoids it in favour of a fresh block.
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 1, "least-worn block wins the tie");
    }

    #[test]
    fn wear_aware_static_leveling_turns_over_cold_blocks() {
        // 6-block device. Block 0 holds cold data (3 valid) and never
        // churns; the rest churn hot data and accumulate wear.
        let mut flash = Flash::new(FlashGeometry {
            page_bytes: 4096,
            pages_per_block: 4,
            num_blocks: 6,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: FlashTopology::default(),
        })
        .unwrap();
        let mut mgr = BlockManager::new(6, 4, GcPolicy::WearAware { max_wear_delta: 1 });
        assert_eq!(seal_with(&mut mgr, &mut flash, 3), 0);
        for _ in 0..12 {
            let b = seal_with(&mut mgr, &mut flash, 1);
            assert_ne!(b, 0, "block 0 stays sealed and cold");
            let v = churn_once(&mut mgr, &mut flash);
            assert_ne!(v, 0, "greedy churn never touches the cold block");
        }
        assert!(mgr.max_wear() >= 2);
        // Tight wear budget: the cold block must be turned over although a
        // 1-valid candidate exists... (none sealed right now except 0).
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 0, "static wear leveling turns over the cold block");
    }

    /// A *fully valid* cold block is invisible to the dynamic path, but
    /// the rate-limited static path still turns it over on the 8th pick.
    #[test]
    fn wear_aware_static_leveling_reaches_full_blocks() {
        let mut flash = Flash::new(FlashGeometry {
            page_bytes: 4096,
            pages_per_block: 4,
            num_blocks: 6,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: FlashTopology::default(),
        })
        .unwrap();
        let mut mgr = BlockManager::new(6, 4, GcPolicy::WearAware { max_wear_delta: 1 });
        assert_eq!(seal_with(&mut mgr, &mut flash, 4), 0); // cold, fully valid
        for _ in 0..12 {
            let b = seal_with(&mut mgr, &mut flash, 1);
            assert_ne!(b, 0);
            let v = churn_once(&mut mgr, &mut flash);
            assert_ne!(v, 0);
        }
        // Only block 0 is sealed and it is fully valid: the dynamic path
        // has no candidate, so the first 7 picks return None...
        for _ in 0..7 {
            assert!(mgr.pick_victim().is_none());
        }
        // ...and the 8th triggers the static turn-over.
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 0);
    }

    /// The original per-bucket `BTreeSet` victim index, kept verbatim as an
    /// oracle: the intrusive-list rewrite must produce the *identical*
    /// victim sequence for every policy, or fixed-seed replays diverge.
    struct BucketOracle {
        buckets: Vec<BTreeSet<BlockId>>,
        pages_per_block: usize,
        seq: u64,
        seal_seq: Vec<u64>,
        sealed_valid: Vec<u32>,
        wear: Vec<u32>,
        wear_index: BTreeSet<(u32, BlockId)>,
        max_wear: u32,
        picks_since_static: u32,
    }

    impl BucketOracle {
        fn new(num_blocks: usize, pages_per_block: usize) -> Self {
            Self {
                buckets: (0..=pages_per_block).map(|_| BTreeSet::new()).collect(),
                pages_per_block,
                seq: 0,
                seal_seq: vec![0; num_blocks],
                sealed_valid: vec![0; num_blocks],
                wear: vec![0; num_blocks],
                wear_index: BTreeSet::new(),
                max_wear: 0,
                picks_since_static: 0,
            }
        }

        /// The oracle a mount builds: every programmed block sealed in
        /// id order, wear read from the device.
        fn rebuilt(flash: &Flash) -> Self {
            let geom = flash.geometry();
            let mut oracle = Self::new(geom.num_blocks, geom.pages_per_block);
            for b in 0..geom.num_blocks as BlockId {
                let wear = flash.erase_count(b).unwrap() as u32;
                oracle.wear[b as usize] = wear;
                oracle.max_wear = oracle.max_wear.max(wear);
                if flash.free_pages_in(b).unwrap() < geom.pages_per_block {
                    oracle.on_seal(b, flash.valid_pages_in(b).unwrap());
                }
            }
            oracle
        }

        fn on_seal(&mut self, b: BlockId, valid: usize) {
            self.buckets[valid].insert(b);
            self.seq += 1;
            self.seal_seq[b as usize] = self.seq;
            self.sealed_valid[b as usize] = valid as u32;
            self.wear_index.insert((self.wear[b as usize], b));
        }

        fn on_invalidated(&mut self, b: BlockId, new_valid: usize) {
            assert!(self.buckets[new_valid + 1].remove(&b));
            self.buckets[new_valid].insert(b);
            self.sealed_valid[b as usize] = new_valid as u32;
        }

        fn on_claim(&mut self, b: BlockId) {
            self.buckets[self.sealed_valid[b as usize] as usize].remove(&b);
            self.wear_index.remove(&(self.wear[b as usize], b));
        }

        fn on_erased(&mut self, b: BlockId) {
            let w = &mut self.wear[b as usize];
            *w += 1;
            self.max_wear = self.max_wear.max(*w);
        }

        fn pick(
            &mut self,
            policy: GcPolicy,
            free_now: usize,
            multi_stream: bool,
        ) -> Option<BlockId> {
            match policy {
                GcPolicy::Greedy => self.pick_greedy(),
                GcPolicy::CostBenefit => self.pick_cost_benefit(),
                GcPolicy::WearAware { max_wear_delta } => {
                    self.pick_wear_aware(max_wear_delta, free_now)
                }
                GcPolicy::Windowed { window } => self.pick_windowed(window, free_now, multi_stream),
            }
        }

        /// Mirrors [`BlockManager::static_turnover`], with the live free
        /// count passed in (the oracle has no free pool of its own).
        fn static_turnover(
            &mut self,
            max_wear_delta: u64,
            rate: u32,
            free_now: usize,
        ) -> Option<BlockId> {
            self.picks_since_static += 1;
            if self.picks_since_static < rate || free_now < 2 {
                return None;
            }
            let &(wear, b) = self.wear_index.iter().next()?;
            if (self.max_wear as u64).saturating_sub(wear as u64) > max_wear_delta {
                self.picks_since_static = 0;
                return Some(b);
            }
            None
        }

        fn pick_greedy(&self) -> Option<BlockId> {
            self.buckets[..self.pages_per_block]
                .iter()
                .find_map(|bucket| bucket.iter().next().copied())
        }

        fn candidates(&self) -> impl Iterator<Item = BlockId> + '_ {
            self.buckets[..self.pages_per_block]
                .iter()
                .flat_map(|bucket| bucket.iter().copied())
                .take(CANDIDATE_CAP)
        }

        fn pick_cost_benefit(&self) -> Option<BlockId> {
            let np = self.pages_per_block as f64;
            let mut best: Option<(f64, BlockId)> = None;
            for b in self.candidates() {
                let valid = self.sealed_valid[b as usize] as f64;
                if valid == 0.0 {
                    return Some(b);
                }
                let u = valid / np;
                let age = (self.seq - self.seal_seq[b as usize]) as f64 + 1.0;
                let score = (1.0 - u) / (2.0 * u) * age;
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, b));
                }
            }
            best.map(|(_, b)| b)
        }

        fn pick_wear_aware(&mut self, max_wear_delta: u64, free_now: usize) -> Option<BlockId> {
            if let Some(b) =
                self.static_turnover(max_wear_delta, WEAR_AWARE_TURNOVER_RATE, free_now)
            {
                return Some(b);
            }
            self.candidates()
                .min_by_key(|&b| (self.sealed_valid[b as usize], self.wear[b as usize], b))
        }

        /// Brute-force windowed pick: take the first `window` candidates of
        /// the `BTreeSet` order and score them the same way.
        fn pick_windowed(
            &mut self,
            window: u32,
            free_now: usize,
            multi_stream: bool,
        ) -> Option<BlockId> {
            if multi_stream {
                if let Some(b) =
                    self.static_turnover(WINDOWED_WEAR_DELTA, WINDOWED_TURNOVER_RATE, free_now)
                {
                    return Some(b);
                }
            }
            let np = self.pages_per_block as f64;
            let mut best: Option<(f64, u32, BlockId)> = None;
            for b in self.candidates().take(window.max(1) as usize) {
                let valid = self.sealed_valid[b as usize] as f64;
                if valid == 0.0 {
                    return Some(b);
                }
                let u = valid / np;
                let age = (self.seq - self.seal_seq[b as usize]) as f64 + 1.0;
                let score = (1.0 - u) / (2.0 * u) * age;
                let wear = self.wear[b as usize];
                if best.is_none_or(|(s, w, i)| score > s || (score == s && (wear, b) < (w, i))) {
                    best = Some((score, wear, b));
                }
            }
            best.map(|(_, _, b)| b)
        }
    }

    /// Seeded seal/invalidate/pick/erase fuzz: the intrusive bucket lists
    /// must yield the same victim sequence as the `BTreeSet` oracle for
    /// every policy on one and on three streams, before and after a
    /// rebuild from the device halfway through. The wear index must equal
    /// the oracle's after every op where the policy has a static arm
    /// (wear-aware, multi-stream windowed) and be absent everywhere else.
    #[test]
    fn victim_sequence_matches_btreeset_oracle() {
        use tpftl_rng::Rng64;

        const N_BLOCKS: usize = 12;
        const PPB: usize = 4;
        const OPS: usize = 400;
        let policies = [
            GcPolicy::Greedy,
            GcPolicy::CostBenefit,
            GcPolicy::WearAware { max_wear_delta: 1 },
            GcPolicy::WearAware {
                max_wear_delta: 100,
            },
            GcPolicy::Windowed { window: 1 },
            GcPolicy::Windowed { window: 4 },
            GcPolicy::Windowed { window: 64 },
        ];
        for (pi, &policy) in policies.iter().enumerate() {
            // Only the extra streams' existence matters: they are never
            // written, so every other code path is the single-stream one.
            for streams in [1u32, 3] {
                let keeps_index = match policy {
                    GcPolicy::WearAware { .. } => true,
                    GcPolicy::Windowed { .. } => streams > 1,
                    GcPolicy::Greedy | GcPolicy::CostBenefit => false,
                };
                for seed in 0..24u64 {
                    let ctx = format!("policy {policy:?}, streams {streams}, seed {seed}");
                    let mut rng =
                        Rng64::seed_from_u64(0xB10C + seed * 7 + pi as u64 + 1000 * streams as u64);
                    let mut flash = Flash::new(FlashGeometry {
                        page_bytes: 4096,
                        pages_per_block: PPB,
                        num_blocks: N_BLOCKS,
                        read_us: 25.0,
                        write_us: 200.0,
                        erase_us: 1500.0,
                        topology: FlashTopology::default(),
                    })
                    .unwrap();
                    let mut mgr = BlockManager::with_streams(N_BLOCKS, PPB, streams, policy);
                    let mut oracle = BucketOracle::new(N_BLOCKS, PPB);
                    let mut sealed: Vec<BlockId> = Vec::new();

                    for op in 0..OPS {
                        if op == OPS / 2 {
                            // Power cycle: both sides rebuild from the
                            // device alone.
                            mgr = BlockManager::rebuild(&flash, streams, policy).unwrap();
                            oracle = BucketOracle::rebuilt(&flash);
                        }
                        match rng.range_u32(0, 4) {
                            // Seal a fresh block with a random valid count.
                            0 | 1 => {
                                if mgr.free_blocks() == 0 {
                                    continue;
                                }
                                let valid = rng.range_usize(0, PPB + 1);
                                let b = seal_with(&mut mgr, &mut flash, valid);
                                oracle.on_seal(b, valid);
                                sealed.push(b);
                            }
                            // Invalidate one valid page of a random sealed block.
                            2 => {
                                if sealed.is_empty() {
                                    continue;
                                }
                                let b = sealed[rng.range_usize(0, sealed.len())];
                                let pages: Vec<_> = flash.valid_pages(b).collect();
                                if pages.is_empty() {
                                    continue;
                                }
                                let (ppn, _) = pages[rng.range_usize(0, pages.len())];
                                flash.invalidate(ppn).unwrap();
                                let now_valid = flash.valid_pages_in(b).unwrap();
                                mgr.on_invalidated(b, now_valid);
                                oracle.on_invalidated(b, now_valid);
                            }
                            // Pick a victim; sequences must agree exactly.
                            _ => {
                                let expect = oracle.pick(policy, mgr.free_blocks(), streams > 1);
                                let got = mgr.pick_victim();
                                assert_eq!(got.map(|(b, _)| b), expect, "victim mismatch, {ctx}");
                                let Some((b, _)) = got else { continue };
                                oracle.on_claim(b);
                                sealed.retain(|&s| s != b);
                                for (ppn, _) in flash.valid_pages(b).collect::<Vec<_>>() {
                                    flash.invalidate(ppn).unwrap();
                                }
                                flash.erase_block(b, OpPurpose::GcData).unwrap();
                                mgr.on_erased(b);
                                oracle.on_erased(b);
                            }
                        }
                        assert_eq!(mgr.sealed_blocks(), sealed.len(), "{ctx}");
                        assert_eq!(
                            mgr.wear_index.as_ref(),
                            keeps_index.then_some(&oracle.wear_index),
                            "wear index, {ctx}, op {op}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn windowed_one_is_exactly_greedy() {
        // Same setup as the cost-benefit test: block 0 is older at equal
        // utilization, so a wide window prefers it — but window = 1 only
        // ever sees the greedy candidate.
        let (_flash, mut mgr) = sealed_setup(&[2, 1, 4], GcPolicy::Windowed { window: 1 });
        let g = mgr.pick_greedy().unwrap();
        let w = mgr.pick_victim().unwrap().0;
        assert_eq!(w, g);
        assert_eq!(w, 1, "min-valid block is the greedy victim");
    }

    #[test]
    fn windowed_scores_cost_benefit_inside_the_window() {
        // Block 1 has fewer valid pages (the greedy victim) but block 0 is
        // far older: stretch the age gap so the cost-benefit score inside
        // the window overrides pure greed and turns over the old block.
        let (_flash, mut mgr) = sealed_setup(&[2, 1], GcPolicy::Windowed { window: 8 });
        mgr.seq = 10;
        mgr.seal_seq[0] = 1;
        mgr.seal_seq[1] = 10;
        assert_eq!(mgr.pick_greedy(), Some(1));
        // score(0) = (1 − 0.5)/(2·0.5) · 10 = 5; score(1) = 1.5 · 1 = 1.5.
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 0, "the much older block wins the score");
    }

    #[test]
    fn windowed_breaks_score_ties_toward_less_worn_blocks() {
        // Two blocks with equal valid counts; sealed_setup seals them one
        // seq tick apart, so align the seal stamps to force an exact score
        // tie, then wear block 0: the tiebreak must pick the fresh block 1
        // although both the id order and the age order would say 0.
        let (_flash, mut mgr) = sealed_setup(&[1, 1], GcPolicy::Windowed { window: 8 });
        mgr.seal_seq[0] = mgr.seal_seq[1];
        mgr.wear[0] = 5;
        let (victim, _) = mgr.pick_victim().unwrap();
        assert_eq!(victim, 1, "equal scores fall back to the wear tiebreak");
    }

    #[test]
    fn streams_never_share_an_active_block() {
        let flash = flash4();
        let mut mgr = BlockManager::with_streams(4, 4, 2, GcPolicy::Greedy);
        let cold = mgr.alloc_data_page(0, &flash).unwrap();
        let hot = mgr.alloc_data_page(1, &flash).unwrap();
        assert_ne!(
            flash.geometry().block_of(cold),
            flash.geometry().block_of(hot),
            "streams must not share a block"
        );
        assert_eq!(mgr.streams(), 2);
        // Out-of-range stream indices clamp instead of panicking.
        let clamped = mgr.alloc_data_page(9, &flash).unwrap();
        assert_eq!(
            flash.geometry().block_of(clamped),
            flash.geometry().block_of(hot)
        );
    }

    /// Property: however allocations interleave across streams, every
    /// block only ever receives pages from one stream between erases.
    #[test]
    fn active_blocks_never_mix_streams() {
        use tpftl_rng::Rng64;

        const N_BLOCKS: usize = 24;
        const PPB: usize = 4;
        for seed in 0..24u64 {
            let mut rng = Rng64::seed_from_u64(0x57EA + seed);
            let streams = 2 + (seed % 3) as u32; // 2..=4 streams
            let mut flash = Flash::new(FlashGeometry {
                page_bytes: 4096,
                pages_per_block: PPB,
                num_blocks: N_BLOCKS,
                read_us: 25.0,
                write_us: 200.0,
                erase_us: 1500.0,
                topology: FlashTopology::default(),
            })
            .unwrap();
            let mut mgr = BlockManager::with_streams(N_BLOCKS, PPB, streams, GcPolicy::Greedy);
            // Which stream wrote each block (None = erased / untouched).
            let mut owner: Vec<Option<usize>> = vec![None; N_BLOCKS];
            let mut programmed: Vec<Vec<Ppn>> = vec![Vec::new(); N_BLOCKS];
            for op in 0..600u32 {
                let stream = rng.range_usize(0, streams as usize);
                let Ok(ppn) = mgr.alloc_data_page(stream, &flash) else {
                    // Device full: reclaim the greedy victim and move on.
                    let Some((victim, _)) = mgr.pick_victim() else {
                        break;
                    };
                    for p in programmed[victim as usize].drain(..) {
                        flash.invalidate(p).unwrap();
                    }
                    flash.erase_block(victim, OpPurpose::GcData).unwrap();
                    mgr.on_erased(victim);
                    owner[victim as usize] = None;
                    continue;
                };
                flash.program_page(ppn, op, OpPurpose::HostData).unwrap();
                let block = flash.geometry().block_of(ppn) as usize;
                match owner[block] {
                    None => owner[block] = Some(stream),
                    Some(s) => assert_eq!(
                        s, stream,
                        "seed {seed}: block {block} mixed streams {s} and {stream}"
                    ),
                }
                programmed[block].push(ppn);
            }
        }
    }

    #[test]
    fn device_full_reported() {
        let flash = flash4();
        let mut mgr = BlockManager::new(4, 4, GcPolicy::Greedy);
        // Claim both actives, then drain the pool.
        let _ = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
        let _ = mgr.alloc_page(AllocClass::Translation, &flash).unwrap();
        // Exhaust the free pool via repeated sealing without programming is
        // not possible (alloc returns the same page until programmed), so
        // just steal the remaining free blocks directly.
        assert_eq!(mgr.free_blocks(), 2);
    }
}
