//! DFTL (Gupta et al., ASPLOS'09), the paper's baseline.
//!
//! DFTL keeps a *cached mapping table* (CMT) of individual entries managed
//! by a segmented LRU: a probationary segment absorbs newly loaded entries,
//! a protected segment holds re-referenced ones, so one-touch entries are
//! evicted early. As the TPFTL paper characterizes it (Section 3.2), the
//! replacement policy "writes back only one dirty entry when evicting a
//! dirty entry" — batching exists only in the GC path, where the mapping
//! modifications of a victim block's migrated pages that miss the cache are
//! combined into one update per translation page.

use crate::hash::FxHashMap;
use std::collections::BTreeMap;

use tpftl_flash::{Lpn, OpPurpose, Ppn, PPN_NONE};

use crate::env::SsdEnv;
use crate::ftl::{for_each_vtpn_batch, AccessCtx, Ftl, TpDistEntry};
use crate::lru::{LruIdx, LruList};
use crate::{FtlError, Result, SsdConfig};

/// Bytes per cached entry: 4 B LPN + 4 B PPN (Section 2.2/4.1).
const ENTRY_BYTES: usize = 8;

/// Fraction of the entry budget given to the protected segment.
const PROTECTED_FRAC: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
struct CmtEntry {
    lpn: Lpn,
    /// `PPN_NONE` caches "not mapped yet".
    ppn: Ppn,
    dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

/// The DFTL baseline.
pub struct Dftl {
    budget_entries: usize,
    protected_cap: usize,
    map: FxHashMap<Lpn, (Segment, LruIdx)>,
    probation: LruList<CmtEntry>,
    protected: LruList<CmtEntry>,
}

impl Dftl {
    /// Creates a DFTL whose CMT fits the config's usable cache budget at
    /// 8 B per entry.
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`] if not even one entry fits.
    pub fn new(config: &SsdConfig) -> Result<Self> {
        let budget_entries = config.usable_cache_bytes() / ENTRY_BYTES;
        if budget_entries == 0 {
            return Err(FtlError::CacheTooSmall);
        }
        Ok(Self {
            budget_entries,
            protected_cap: ((budget_entries as f64) * PROTECTED_FRAC) as usize,
            map: FxHashMap::default(),
            probation: LruList::new(),
            protected: LruList::new(),
        })
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    /// Promotes a probationary hit to the protected segment, demoting the
    /// protected LRU back to probation when over capacity (classic SLRU).
    fn promote(&mut self, lpn: Lpn, idx: LruIdx) {
        let e = self.probation.remove(idx);
        let new_idx = self.protected.push_mru(e);
        self.map.insert(lpn, (Segment::Protected, new_idx));
        if self.protected.len() > self.protected_cap.max(1) {
            if let Some((lru_idx, lru)) = self.protected.peek_lru() {
                let demoted_lpn = lru.lpn;
                let e = self.protected.remove(lru_idx);
                let p_idx = self.probation.push_mru(e);
                self.map.insert(demoted_lpn, (Segment::Probation, p_idx));
            }
        }
    }

    /// Evicts one entry (probationary LRU, else protected LRU), writing the
    /// victim back alone if dirty — DFTL's single-entry writeback.
    fn evict_one(&mut self, env: &mut SsdEnv) -> Result<()> {
        let victim = if let Some(e) = self.probation.pop_lru() {
            e
        } else if let Some(e) = self.protected.pop_lru() {
            e
        } else {
            return Err(FtlError::CacheTooSmall);
        };
        self.map.remove(&victim.lpn);
        env.note_replacement(victim.dirty);
        if victim.dirty {
            env.update_translation_page(
                env.vtpn_of(victim.lpn),
                &[(env.offset_of(victim.lpn), victim.ppn)],
                OpPurpose::Translation,
            )?;
        }
        Ok(())
    }

    fn insert(&mut self, env: &mut SsdEnv, entry: CmtEntry) -> Result<()> {
        while self.len() >= self.budget_entries {
            self.evict_one(env)?;
        }
        let idx = self.probation.push_mru(entry);
        self.map.insert(entry.lpn, (Segment::Probation, idx));
        Ok(())
    }

    fn get_mut(&mut self, lpn: Lpn) -> Option<&mut CmtEntry> {
        let (seg, idx) = *self.map.get(&lpn)?;
        match seg {
            Segment::Probation => self.probation.get_mut(idx),
            Segment::Protected => self.protected.get_mut(idx),
        }
    }
}

impl Ftl for Dftl {
    fn name(&self) -> String {
        "DFTL".to_string()
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        if let Some(&(seg, idx)) = self.map.get(&lpn) {
            env.note_lookup(true);
            let ppn = match seg {
                Segment::Probation => {
                    let ppn = self.probation.get(idx).expect("mapped handle").ppn;
                    self.promote(lpn, idx);
                    ppn
                }
                Segment::Protected => {
                    self.protected.touch(idx);
                    self.protected.get(idx).expect("mapped handle").ppn
                }
            };
            return Ok((ppn != PPN_NONE).then_some(ppn));
        }
        env.note_lookup(false);
        let vtpn = env.vtpn_of(lpn);
        // Selective caching: one entry is loaded per miss, so read just
        // that entry out of the slab — no page copy, no allocation.
        let ppn = env.read_translation_entry(vtpn, env.offset_of(lpn), OpPurpose::Translation)?;
        self.insert(
            env,
            CmtEntry {
                lpn,
                ppn,
                dirty: false,
            },
        )?;
        Ok((ppn != PPN_NONE).then_some(ppn))
    }

    fn update_mapping(&mut self, _env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        let e = self
            .get_mut(lpn)
            .expect("update_mapping contract: entry was translated immediately before");
        e.ppn = new_ppn;
        e.dirty = true;
        Ok(())
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        let mut hits = 0u64;
        let mut misses = std::mem::take(&mut env.update_scratch);
        misses.clear();
        for &(lpn, new_ppn) in moved {
            if let Some(e) = self.get_mut(lpn) {
                e.ppn = new_ppn;
                e.dirty = true;
                hits += 1;
            } else {
                misses.push((lpn, new_ppn));
            }
        }
        // DFTL's batch update: one translation-page update per victim block
        // and translation page.
        let res = for_each_vtpn_batch(env, &mut misses, |env, vtpn, updates| {
            env.update_translation_page(vtpn, updates, OpPurpose::GcTranslation)
        });
        env.update_scratch = misses;
        res.map(|()| hits)
    }

    fn cache_bytes_used(&self) -> usize {
        self.len() * ENTRY_BYTES
    }

    fn cached_entries(&self) -> usize {
        self.len()
    }

    fn peek_cached(&self, _env: &SsdEnv, lpn: Lpn) -> crate::Result<Option<Option<Ppn>>> {
        let Some(&(seg, idx)) = self.map.get(&lpn) else {
            return Ok(None);
        };
        let e = match seg {
            Segment::Probation => self.probation.get(idx),
            Segment::Protected => self.protected.get(idx),
        }
        .expect("mapped handle");
        Ok(Some((e.ppn != PPN_NONE).then_some(e.ppn)))
    }

    fn mark_clean(&mut self, vtpn: u32) {
        for list in [&mut self.probation, &mut self.protected] {
            let idxs: Vec<_> = list
                .iter_lru()
                .filter(|(_, e)| e.lpn / 1024 == vtpn && e.dirty)
                .map(|(i, _)| i)
                .collect();
            for i in idxs {
                list.get_mut(i).expect("live handle").dirty = false;
            }
        }
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        let mut by_tp: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
        for (_, e) in self.probation.iter_lru().chain(self.protected.iter_lru()) {
            // Entries per translation page is fixed at 1024 (4 KB / 4 B).
            let vtpn = e.lpn / 1024;
            let slot = by_tp.entry(vtpn).or_default();
            slot.0 += 1;
            if e.dirty {
                slot.1 += 1;
            }
        }
        by_tp
            .into_iter()
            .map(|(vtpn, (entries, dirty))| TpDistEntry {
                vtpn,
                entries,
                dirty,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;

    /// 8 MB logical space (2048 pages, 2 translation pages) with a cache
    /// budget of `entries` CMT entries.
    fn setup(entries: usize) -> (Dftl, SsdEnv) {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + entries * ENTRY_BYTES;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = Dftl::new(&config).unwrap();
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    #[test]
    fn cache_too_small_rejected() {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + 4;
        assert!(matches!(Dftl::new(&config), Err(FtlError::CacheTooSmall)));
    }

    #[test]
    fn miss_then_hit() {
        let (mut ftl, mut env) = setup(16);
        driver::serve_page_access(&mut ftl, &mut env, 7, AccessCtx::single(true)).unwrap();
        assert_eq!(env.stats.lookups, 1);
        assert_eq!(env.stats.hits, 0);
        // The miss loaded the translation page once.
        assert_eq!(env.flash().stats().translation_reads(), 1);
        driver::serve_page_access(&mut ftl, &mut env, 7, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 1);
        // The hit needed no further translation traffic.
        assert_eq!(env.flash().stats().translation_reads(), 1);
    }

    #[test]
    fn clean_eviction_writes_nothing() {
        let (mut ftl, mut env) = setup(4);
        // Read 5 distinct cold pages: all entries loaded clean, one evicted.
        for lpn in 0..5u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        assert_eq!(env.stats.replacements, 1);
        assert_eq!(env.stats.dirty_replacements, 0);
        assert_eq!(env.flash().stats().translation_writes(), 0);
        assert_eq!(ftl.cached_entries(), 4);
    }

    #[test]
    fn dirty_eviction_writes_back_one_entry() {
        let (mut ftl, mut env) = setup(4);
        // Write 4 pages (dirty entries), then touch 1 more to force one
        // dirty eviction.
        for lpn in 0..4u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        let tw_before = env.flash().stats().translation_writes();
        driver::serve_page_access(&mut ftl, &mut env, 100, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.replacements, 1);
        assert_eq!(env.stats.dirty_replacements, 1);
        // Exactly one translation page write for the single victim (the
        // other 3 dirty entries stay cached — DFTL's inefficiency).
        assert_eq!(env.flash().stats().translation_writes(), tw_before + 1);
        assert_eq!(ftl.cached_tp_distribution()[0].dirty, 3);
    }

    #[test]
    fn written_back_mapping_is_durable() {
        let (mut ftl, mut env) = setup(4);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(true)).unwrap();
        // Evict LPN 0 by loading 4 colder entries.
        for lpn in 10..14u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        assert!(!ftl.map.contains_key(&0), "entry 0 must be evicted");
        // Re-translating must recover the written-back PPN and read OK.
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
    }

    #[test]
    fn segmented_lru_protects_rereferenced_entries() {
        let (mut ftl, mut env) = setup(8); // protected cap = 4
                                           // Load 4 entries and re-reference them -> protected.
        for lpn in 0..4u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        for lpn in 0..4u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        // Stream 8 one-touch entries through the cache.
        for lpn in 100..108u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        // The hot four must have survived the scan.
        for lpn in 0..4u32 {
            assert!(
                ftl.map.contains_key(&lpn),
                "protected entry {lpn} evicted by scan"
            );
        }
    }

    #[test]
    fn gc_hits_update_cache_and_misses_batch() {
        let (mut ftl, mut env) = setup(64);
        // Interleave a hot overwrite set with cold once-written pages so GC
        // victims retain valid pages to migrate.
        for i in 0..3000u32 {
            let lpn = if i % 2 == 0 {
                (i / 2) % 64
            } else {
                100 + (i / 2) % 1800
            };
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        assert!(env.stats.gc_updates > 0, "GC never migrated pages");
        // Consistency: all hot mappings resolve correctly.
        for lpn in 0..64u32 {
            let ppn = ftl
                .translate(&mut env, lpn, &AccessCtx::single(false))
                .unwrap()
                .unwrap();
            env.read_data_page(ppn, lpn).unwrap();
        }
    }

    #[test]
    fn unmapped_entries_are_cached_too() {
        let (mut ftl, mut env) = setup(4);
        driver::serve_page_access(&mut ftl, &mut env, 50, AccessCtx::single(false)).unwrap();
        assert_eq!(
            ftl.cached_entries(),
            1,
            "negative lookups occupy cache space"
        );
        driver::serve_page_access(&mut ftl, &mut env, 50, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 1);
    }

    #[test]
    fn budget_never_exceeded() {
        let (mut ftl, mut env) = setup(6);
        for lpn in 0..200u32 {
            driver::serve_page_access(
                &mut ftl,
                &mut env,
                (lpn * 37) % 2048,
                AccessCtx::single(lpn % 3 != 0),
            )
            .unwrap();
            assert!(ftl.cache_bytes_used() <= 6 * ENTRY_BYTES);
        }
    }
}
