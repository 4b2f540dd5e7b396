//! NDroid's taint shadow state.
//!
//! "NDroid maintains shadow registers to store the related registers'
//! taints and a taint map to store the memories' taints. The taint
//! granularity of NDroid is byte. The general propagation logic behind
//! NDroid follows the 'or' operation." (§V-E)
//!
//! The shadow state also holds the *object taint map* keyed by indirect
//! reference — "the shadow memory uses the indirect reference as key to
//! locate the taint information" because direct pointers move under GC
//! (§V-B).
//!
//! # Paged layout
//!
//! [`TaintMap`] mirrors the 4 KiB page structure of guest memory
//! ([`ndroid_arm::mem`]): a page index over lazily materialized
//! `Box<[Taint; PAGE_SIZE]>` bodies, a one-entry TLB for the strongly
//! local access patterns of the instruction tracer, and two per-page
//! summary words — `live` (exact count of tainted bytes) and `summary`
//! (an over-approximate union of the labels stored since the page was
//! last fully clean). Clean pages answer `get`/`range_taint` without
//! touching the page body, and every range operation works on page
//! slices instead of per-byte map probes. [`HashTaintMap`] preserves
//! the previous sparse-`HashMap` implementation as the reference model
//! for the differential property test and the `BENCH_taint` suite; it
//! will be removed once the paged map has soaked.

use ndroid_arm::mem::{PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
use ndroid_dvm::{IndirectRef, Taint};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

/// One 4 KiB page of byte taints plus its summary words.
#[derive(Debug, Clone)]
struct TaintPage {
    taints: Box<[Taint; PAGE_SIZE]>,
    /// Exact number of currently tainted (nonzero) bytes on the page.
    /// `live == 0` is the clean fast path: readers skip the body.
    live: u32,
    /// Union of every label stored while the page had tainted bytes —
    /// an over-approximation of the union of the page's current bytes,
    /// reset to `CLEAR` whenever `live` drops to 0. `range_taint` uses
    /// it to skip pages that cannot contribute new label bits.
    summary: Taint,
}

impl TaintPage {
    fn new() -> TaintPage {
        TaintPage {
            taints: Box::new([Taint::CLEAR; PAGE_SIZE]),
            live: 0,
            summary: Taint::CLEAR,
        }
    }
}

fn count_tainted(s: &[Taint]) -> usize {
    s.iter().filter(|t| t.is_tainted()).count()
}

/// Byte-granular shadow memory for taints, organized as two-level
/// paged storage (see the module docs). Only pages that have ever held
/// taint are materialized, so a mostly-clean guest still costs almost
/// nothing — one of the reasons NDroid is cheaper than whole-system
/// approaches.
///
/// Pages are `Rc`-shared **copy-on-write**, mirroring guest
/// [`Memory`](ndroid_arm::Memory): `clone` copies only the page table
/// and every mutator privatizes the touched page lazily via
/// `Rc::make_mut`, so snapshot/fork of a warmed system shares shadow
/// pages the same way it shares guest pages. Unlike guest memory the
/// taint map needs no epoch: nothing external pins its slots — its
/// one-entry TLB is internal and reset on clone.
#[derive(Debug, Default)]
pub struct TaintMap {
    pages: Vec<Rc<TaintPage>>,
    index: HashMap<u32, u32>,
    tlb: Cell<Option<(u32, u32)>>, // (page number, pages[] slot)
}

impl Clone for TaintMap {
    fn clone(&self) -> TaintMap {
        TaintMap {
            pages: self.pages.clone(),
            index: self.index.clone(),
            tlb: Cell::new(None),
        }
    }
}

impl TaintMap {
    /// An empty (all-clear) map.
    pub fn new() -> TaintMap {
        TaintMap::default()
    }

    #[inline]
    fn slot_of(&self, pageno: u32) -> Option<u32> {
        if let Some((p, slot)) = self.tlb.get() {
            if p == pageno {
                return Some(slot);
            }
        }
        let slot = *self.index.get(&pageno)?;
        self.tlb.set(Some((pageno, slot)));
        Some(slot)
    }

    #[inline]
    fn slot_or_alloc(&mut self, pageno: u32) -> u32 {
        if let Some(slot) = self.slot_of(pageno) {
            return slot;
        }
        let slot = self.pages.len() as u32;
        self.pages.push(Rc::new(TaintPage::new()));
        self.index.insert(pageno, slot);
        self.tlb.set(Some((pageno, slot)));
        slot
    }

    /// The taint of one byte.
    #[inline]
    pub fn get(&self, addr: u32) -> Taint {
        match self.slot_of(addr >> PAGE_SHIFT) {
            Some(slot) => {
                let p = &self.pages[slot as usize];
                if p.live == 0 {
                    Taint::CLEAR
                } else {
                    p.taints[(addr & PAGE_MASK) as usize]
                }
            }
            None => Taint::CLEAR,
        }
    }

    /// Overwrites one byte's taint.
    #[inline]
    pub fn set(&mut self, addr: u32, taint: Taint) {
        if taint.is_clear() {
            // Never materialize a page just to store CLEAR.
            let Some(slot) = self.slot_of(addr >> PAGE_SHIFT) else {
                return;
            };
            // Check via a shared borrow first so an all-clear store
            // never privatizes a CoW-shared page.
            let off = (addr & PAGE_MASK) as usize;
            {
                let p = &self.pages[slot as usize];
                if p.live == 0 || p.taints[off].is_clear() {
                    return;
                }
            }
            let p = Rc::make_mut(&mut self.pages[slot as usize]);
            p.taints[off] = Taint::CLEAR;
            p.live -= 1;
            if p.live == 0 {
                p.summary = Taint::CLEAR;
            }
        } else {
            let slot = self.slot_or_alloc(addr >> PAGE_SHIFT);
            let p = Rc::make_mut(&mut self.pages[slot as usize]);
            let b = &mut p.taints[(addr & PAGE_MASK) as usize];
            if b.is_clear() {
                p.live += 1;
            }
            *b = taint;
            p.summary |= taint;
        }
    }

    /// Unions `taint` into one byte.
    #[inline]
    pub fn add(&mut self, addr: u32, taint: Taint) {
        if taint.is_clear() {
            return;
        }
        let slot = self.slot_or_alloc(addr >> PAGE_SHIFT);
        let p = Rc::make_mut(&mut self.pages[slot as usize]);
        let b = &mut p.taints[(addr & PAGE_MASK) as usize];
        if b.is_clear() {
            p.live += 1;
        }
        *b |= taint;
        p.summary |= taint;
    }

    /// Overwrites a byte range with `taint`, page slice by page slice.
    pub fn set_range(&mut self, addr: u32, len: u32, taint: Taint) {
        if taint.is_clear() {
            self.clear_range(addr, len);
            return;
        }
        let mut i = 0u32;
        while i < len {
            let a = addr.wrapping_add(i);
            let off = (a & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE - off) as u32).min(len - i) as usize;
            let slot = self.slot_or_alloc(a >> PAGE_SHIFT);
            let p = Rc::make_mut(&mut self.pages[slot as usize]);
            let already = if n == PAGE_SIZE {
                p.live as usize
            } else {
                count_tainted(&p.taints[off..off + n])
            };
            p.taints[off..off + n].fill(taint);
            p.live += (n - already) as u32;
            p.summary |= taint;
            i += n as u32;
        }
    }

    /// Unions `taint` over a byte range.
    pub fn add_range(&mut self, addr: u32, len: u32, taint: Taint) {
        if taint.is_clear() {
            return;
        }
        let mut i = 0u32;
        while i < len {
            let a = addr.wrapping_add(i);
            let off = (a & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE - off) as u32).min(len - i) as usize;
            let slot = self.slot_or_alloc(a >> PAGE_SHIFT);
            let p = Rc::make_mut(&mut self.pages[slot as usize]);
            let mut newly = 0u32;
            for b in &mut p.taints[off..off + n] {
                if b.is_clear() {
                    newly += 1;
                }
                *b |= taint;
            }
            p.live += newly;
            p.summary |= taint;
            i += n as u32;
        }
    }

    /// The union of taints over a byte range. Clean pages are skipped
    /// via the `live` count, and pages whose `summary` cannot add new
    /// label bits are skipped without scanning.
    pub fn range_taint(&self, addr: u32, len: u32) -> Taint {
        let mut acc = Taint::CLEAR;
        let mut i = 0u32;
        while i < len {
            let a = addr.wrapping_add(i);
            let off = (a & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE - off) as u32).min(len - i) as usize;
            if let Some(slot) = self.slot_of(a >> PAGE_SHIFT) {
                let p = &self.pages[slot as usize];
                if p.live != 0 && p.summary.0 & !acc.0 != 0 {
                    for b in &p.taints[off..off + n] {
                        acc |= *b;
                    }
                }
            }
            i += n as u32;
        }
        acc
    }

    /// Clears a byte range.
    pub fn clear_range(&mut self, addr: u32, len: u32) {
        let mut i = 0u32;
        while i < len {
            let a = addr.wrapping_add(i);
            let off = (a & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE - off) as u32).min(len - i) as usize;
            self.clear_chunk(a >> PAGE_SHIFT, off, n);
            i += n as u32;
        }
    }

    /// Clears `n` bytes on one page (no-op for unmapped/clean pages).
    fn clear_chunk(&mut self, pageno: u32, off: usize, n: usize) {
        let Some(slot) = self.slot_of(pageno) else {
            return;
        };
        // Decide through a shared borrow whether anything will change,
        // so clearing an already-clean span never privatizes a
        // CoW-shared page.
        let cleared = {
            let p = &self.pages[slot as usize];
            if p.live == 0 {
                return;
            }
            if n == PAGE_SIZE {
                p.live as usize
            } else {
                count_tainted(&p.taints[off..off + n])
            }
        };
        if cleared == 0 {
            return;
        }
        let p = Rc::make_mut(&mut self.pages[slot as usize]);
        p.taints[off..off + n].fill(Taint::CLEAR);
        p.live -= cleared as u32;
        if p.live == 0 {
            p.summary = Taint::CLEAR;
        }
    }

    /// Copies taints from `src` to `dst` (the `memcpy` model of the
    /// paper's Listing 3), allocation-free: overlap is handled by copy
    /// direction (memmove-style), and each chunk is a page-slice
    /// `copy_from_slice`/`copy_within` rather than per-byte probes.
    pub fn copy_range(&mut self, dst: u32, src: u32, len: u32) {
        let d = dst.wrapping_sub(src);
        if d == 0 || len == 0 {
            return;
        }
        if d < len {
            // dst overlaps ahead of src: copy high-to-low so no source
            // byte is overwritten before it is read.
            let mut remaining = len;
            while remaining > 0 {
                let s_end = src.wrapping_add(remaining);
                let d_end = dst.wrapping_add(remaining);
                // Bytes available back to each page's start (1..=PAGE).
                let s_room = ((s_end.wrapping_sub(1) & PAGE_MASK) + 1).min(remaining);
                let n = ((d_end.wrapping_sub(1) & PAGE_MASK) + 1).min(s_room);
                let i = remaining - n;
                self.copy_chunk(dst.wrapping_add(i), src.wrapping_add(i), n as usize);
                remaining = i;
            }
        } else {
            let mut i = 0u32;
            while i < len {
                let s = src.wrapping_add(i);
                let dd = dst.wrapping_add(i);
                let s_room = ((PAGE_SIZE as u32) - (s & PAGE_MASK)).min(len - i);
                let n = ((PAGE_SIZE as u32) - (dd & PAGE_MASK)).min(s_room);
                self.copy_chunk(dd, s, n as usize);
                i += n;
            }
        }
    }

    /// Copies `n` bytes between two single-page slices (which may be
    /// the same page; `copy_within` handles intra-page overlap).
    fn copy_chunk(&mut self, dst: u32, src: u32, n: usize) {
        let d_off = (dst & PAGE_MASK) as usize;
        let s_off = (src & PAGE_MASK) as usize;
        let Some(s_slot) = self.slot_of(src >> PAGE_SHIFT) else {
            self.clear_chunk(dst >> PAGE_SHIFT, d_off, n);
            return;
        };
        let sp = &self.pages[s_slot as usize];
        if sp.live == 0 || count_tainted(&sp.taints[s_off..s_off + n]) == 0 {
            self.clear_chunk(dst >> PAGE_SHIFT, d_off, n);
            return;
        }
        if src >> PAGE_SHIFT == dst >> PAGE_SHIFT {
            let p = Rc::make_mut(&mut self.pages[s_slot as usize]);
            let before = count_tainted(&p.taints[d_off..d_off + n]);
            p.taints.copy_within(s_off..s_off + n, d_off);
            let after = count_tainted(&p.taints[d_off..d_off + n]);
            p.live -= before as u32;
            p.live += after as u32;
            if p.live == 0 {
                p.summary = Taint::CLEAR;
            }
            return;
        }
        let d_slot = self.slot_or_alloc(dst >> PAGE_SHIFT);
        debug_assert_ne!(s_slot, d_slot);
        // A cheap handle clone of the source page stands in for the
        // old split-borrow dance: with Rc pages, aliasing the source
        // while privatizing the destination is a refcount bump.
        let sp = Rc::clone(&self.pages[s_slot as usize]);
        let dp = Rc::make_mut(&mut self.pages[d_slot as usize]);
        let before = count_tainted(&dp.taints[d_off..d_off + n]);
        dp.taints[d_off..d_off + n].copy_from_slice(&sp.taints[s_off..s_off + n]);
        let after = count_tainted(&dp.taints[d_off..d_off + n]);
        dp.live -= before as u32;
        dp.live += after as u32;
        dp.summary |= sp.summary;
        if dp.live == 0 {
            dp.summary = Taint::CLEAR;
        }
    }

    /// Number of tainted bytes.
    pub fn tainted_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.live as usize).sum()
    }

    /// Number of shadow pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of shadow pages exclusively owned by this map (see
    /// [`Memory::resident_pages`](ndroid_arm::Memory::resident_pages);
    /// 0 right after a clone, grows as writes privatize pages).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| Rc::strong_count(p) == 1).count()
    }

    /// Every `(address, taint)` pair with a non-clear taint, sorted by
    /// address — the canonical form the differential oracle diffs
    /// byte-for-byte against the reference map.
    pub fn tainted_entries(&self) -> Vec<(u32, Taint)> {
        let mut out = Vec::new();
        for (pageno, slot) in &self.index {
            let p = &self.pages[*slot as usize];
            if p.live == 0 {
                continue;
            }
            let base = pageno << PAGE_SHIFT;
            for (off, t) in p.taints.iter().enumerate() {
                if t.is_tainted() {
                    out.push((base.wrapping_add(off as u32), *t));
                }
            }
        }
        out.sort_unstable_by_key(|(a, _)| *a);
        out
    }
}

/// The pre-paging sparse `HashMap<u32, Taint>` shadow memory, one
/// entry per tainted byte. Kept as the executable reference model for
/// the paged [`TaintMap`]: the differential property test replays the
/// same operation sequences against both, and `BENCH_taint.json`
/// records the speedup. Scheduled for removal once the paged map has
/// soaked for a few PRs.
#[derive(Debug, Default, Clone)]
pub struct HashTaintMap {
    bytes: HashMap<u32, Taint>,
}

impl HashTaintMap {
    /// An empty (all-clear) map.
    pub fn new() -> HashTaintMap {
        HashTaintMap::default()
    }

    /// The taint of one byte.
    #[inline]
    pub fn get(&self, addr: u32) -> Taint {
        self.bytes.get(&addr).copied().unwrap_or(Taint::CLEAR)
    }

    /// Overwrites one byte's taint (clearing removes the entry).
    #[inline]
    pub fn set(&mut self, addr: u32, taint: Taint) {
        if taint.is_clear() {
            self.bytes.remove(&addr);
        } else {
            self.bytes.insert(addr, taint);
        }
    }

    /// Unions `taint` into one byte.
    #[inline]
    pub fn add(&mut self, addr: u32, taint: Taint) {
        if taint.is_tainted() {
            *self.bytes.entry(addr).or_insert(Taint::CLEAR) |= taint;
        }
    }

    /// Overwrites a byte range with `taint`.
    pub fn set_range(&mut self, addr: u32, len: u32, taint: Taint) {
        for i in 0..len {
            self.set(addr.wrapping_add(i), taint);
        }
    }

    /// Unions `taint` over a byte range.
    pub fn add_range(&mut self, addr: u32, len: u32, taint: Taint) {
        for i in 0..len {
            self.add(addr.wrapping_add(i), taint);
        }
    }

    /// The union of taints over a byte range.
    pub fn range_taint(&self, addr: u32, len: u32) -> Taint {
        let mut t = Taint::CLEAR;
        for i in 0..len {
            t |= self.get(addr.wrapping_add(i));
        }
        t
    }

    /// Clears a byte range.
    pub fn clear_range(&mut self, addr: u32, len: u32) {
        for i in 0..len {
            self.bytes.remove(&addr.wrapping_add(i));
        }
    }

    /// Copies taints byte-by-byte from `src` to `dst`, collecting into
    /// an intermediate `Vec` first (the allocation the paged map's
    /// directional copy eliminates).
    pub fn copy_range(&mut self, dst: u32, src: u32, len: u32) {
        let taints: Vec<Taint> = (0..len).map(|i| self.get(src.wrapping_add(i))).collect();
        for (i, t) in taints.into_iter().enumerate() {
            self.set(dst.wrapping_add(i as u32), t);
        }
    }

    /// Number of tainted bytes.
    pub fn tainted_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Every `(address, taint)` pair with a non-clear taint, sorted by
    /// address (see [`TaintMap::tainted_entries`]).
    pub fn tainted_entries(&self) -> Vec<(u32, Taint)> {
        let mut out: Vec<(u32, Taint)> = self.bytes.iter().map(|(a, t)| (*a, *t)).collect();
        out.sort_unstable_by_key(|(a, _)| *a);
        out
    }
}

/// Shadow state for the **reference taint engine** of the differential
/// oracle: the same register/VFP files as [`ShadowState`] but backed by
/// the sparse [`HashTaintMap`] — no pages, no TLB, no summary words.
/// Deliberately the simplest state that can hold Table V's facts, so
/// a disagreement with the optimized pipeline indicts the fast paths,
/// not the model.
#[derive(Debug, Default, Clone)]
pub struct RefShadowState {
    /// Shadow core registers (`tR0`…`tR15`).
    pub regs: [Taint; 16],
    /// Shadow VFP registers (S0–S31).
    pub vfp: [Taint; 32],
    /// Byte-granular memory taint, sparse-HashMap backed.
    pub mem: HashTaintMap,
}

impl RefShadowState {
    /// A fresh, all-clear reference shadow state.
    pub fn new() -> RefShadowState {
        RefShadowState::default()
    }
}

/// The complete native-context taint state.
#[derive(Debug, Default, Clone)]
pub struct ShadowState {
    /// Shadow core registers (`tR0`…`tR15`).
    pub regs: [Taint; 16],
    /// Shadow VFP registers (S0–S31).
    pub vfp: [Taint; 32],
    /// Byte-granular memory taint map.
    pub mem: TaintMap,
    /// Java-object taints visible from the native context, keyed by
    /// **indirect reference** so GC moves cannot stale them (§V-B).
    pub objects: HashMap<IndirectRef, Taint>,
    /// Count of taint-propagation operations performed (for overhead
    /// accounting in the benchmarks).
    pub ops: u64,
    /// Provenance recorder shared with the DVM and the kernel model
    /// (defaults to `Level::Off`: no store, nothing recorded).
    pub prov: ndroid_provenance::Handle,
}

impl ShadowState {
    /// A fresh, all-clear shadow state.
    pub fn new() -> ShadowState {
        ShadowState::default()
    }

    /// Clears every shadow register (e.g. on a fresh native call).
    pub fn clear_regs(&mut self) {
        self.regs = [Taint::CLEAR; 16];
        self.vfp = [Taint::CLEAR; 32];
    }

    /// The taint recorded for a Java object reference.
    pub fn object_taint(&self, r: IndirectRef) -> Taint {
        self.objects.get(&r).copied().unwrap_or(Taint::CLEAR)
    }

    /// Unions taint onto a Java object reference.
    pub fn taint_object(&mut self, r: IndirectRef, taint: Taint) {
        if taint.is_tainted() {
            *self.objects.entry(r).or_insert(Taint::CLEAR) |= taint;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_dvm::IndirectRef;

    #[test]
    fn byte_granularity() {
        let mut m = TaintMap::new();
        m.set(0x1000, Taint::IMEI);
        assert_eq!(m.get(0x1000), Taint::IMEI);
        assert_eq!(m.get(0x1001), Taint::CLEAR);
        assert_eq!(m.tainted_bytes(), 1);
    }

    #[test]
    fn add_unions() {
        let mut m = TaintMap::new();
        m.add(5, Taint::SMS);
        m.add(5, Taint::CONTACTS);
        assert_eq!(m.get(5), Taint::SMS | Taint::CONTACTS);
        m.add(6, Taint::CLEAR);
        assert_eq!(m.tainted_bytes(), 1, "clear adds are free");
    }

    #[test]
    fn set_clear_removes_entry() {
        let mut m = TaintMap::new();
        m.set(7, Taint::IMEI);
        m.set(7, Taint::CLEAR);
        assert_eq!(m.tainted_bytes(), 0);
    }

    #[test]
    fn clear_never_materializes_pages() {
        let mut m = TaintMap::new();
        m.set(0x9000, Taint::CLEAR);
        m.set_range(0x20_0000, 0x3000, Taint::CLEAR);
        m.clear_range(0x30_0000, 0x3000);
        m.add_range(0x40_0000, 0x3000, Taint::CLEAR);
        assert_eq!(m.page_count(), 0, "clear writes stay free");
        assert_eq!(m.range_taint(0x20_0000, 0x3000), Taint::CLEAR);
    }

    #[test]
    fn range_operations() {
        let mut m = TaintMap::new();
        m.set_range(0x100, 8, Taint::SMS);
        assert_eq!(m.range_taint(0x100, 8), Taint::SMS);
        assert_eq!(m.range_taint(0x108, 4), Taint::CLEAR);
        assert_eq!(m.range_taint(0x0FC, 8), Taint::SMS, "partial overlap unions");
        m.clear_range(0x100, 4);
        assert_eq!(m.range_taint(0x100, 4), Taint::CLEAR);
        assert_eq!(m.range_taint(0x104, 4), Taint::SMS);
    }

    #[test]
    fn range_operations_cross_pages() {
        let mut m = TaintMap::new();
        let base = 0x3000 - 16; // straddles a page boundary
        m.set_range(base, 64, Taint::SMS);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.tainted_bytes(), 64);
        assert_eq!(m.range_taint(base, 64), Taint::SMS);
        m.add_range(base + 8, 16, Taint::IMEI);
        assert_eq!(m.range_taint(base, 8), Taint::SMS);
        assert_eq!(m.range_taint(base + 8, 16), Taint::SMS | Taint::IMEI);
        m.clear_range(base, 64);
        assert_eq!(m.tainted_bytes(), 0);
        assert_eq!(m.range_taint(base, 64), Taint::CLEAR);
    }

    #[test]
    fn set_range_wraps_address_space() {
        let mut m = TaintMap::new();
        m.set_range(u32::MAX - 3, 8, Taint::MIC);
        assert_eq!(m.get(u32::MAX), Taint::MIC);
        assert_eq!(m.get(3), Taint::MIC);
        assert_eq!(m.get(4), Taint::CLEAR);
        assert_eq!(m.tainted_bytes(), 8);
    }

    #[test]
    fn copy_range_models_memcpy() {
        let mut m = TaintMap::new();
        m.set(0x200, Taint::IMEI);
        m.set(0x202, Taint::SMS);
        m.copy_range(0x300, 0x200, 4);
        assert_eq!(m.get(0x300), Taint::IMEI);
        assert_eq!(m.get(0x301), Taint::CLEAR);
        assert_eq!(m.get(0x302), Taint::SMS);
    }

    #[test]
    fn copy_range_handles_overlap() {
        let mut m = TaintMap::new();
        m.set(0x400, Taint::IMEI);
        m.copy_range(0x401, 0x400, 4); // overlapping forward copy
        assert_eq!(m.get(0x401), Taint::IMEI);
        assert_eq!(m.get(0x402), Taint::CLEAR);
    }

    #[test]
    fn copy_range_overlap_backward() {
        let mut m = TaintMap::new();
        m.set(0x503, Taint::SMS);
        m.copy_range(0x500, 0x501, 4); // dst < src overlap
        assert_eq!(m.get(0x502), Taint::SMS);
        assert_eq!(m.get(0x503), Taint::CLEAR, "overwritten by clear source byte");
    }

    #[test]
    fn copy_range_across_pages_with_skew() {
        // src and dst straddle different page boundaries, so chunking
        // must split on both.
        let mut m = TaintMap::new();
        for i in 0..32 {
            if i % 3 == 0 {
                m.set(0x1FF0 + i, Taint::CONTACTS);
            }
        }
        m.copy_range(0x4FFB, 0x1FF0, 32);
        for i in 0..32u32 {
            let want = if i % 3 == 0 { Taint::CONTACTS } else { Taint::CLEAR };
            assert_eq!(m.get(0x4FFB + i), want, "byte {i}");
        }
    }

    #[test]
    fn copy_from_unmapped_clears_destination() {
        let mut m = TaintMap::new();
        m.set_range(0x800, 8, Taint::IMEI);
        m.copy_range(0x800, 0x9_0000, 8); // source never touched
        assert_eq!(m.tainted_bytes(), 0);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut m = TaintMap::new();
        m.set_range(0x1000, 2 * PAGE_SIZE as u32, Taint::IMEI);
        assert_eq!(m.resident_pages(), 2);
        let mut fork = m.clone();
        assert_eq!(fork.resident_pages(), 0, "all pages shared at clone");
        assert_eq!(fork.tainted_bytes(), m.tainted_bytes());

        // Writing one byte privatizes exactly one page, one side only.
        fork.add(0x1004, Taint::SMS);
        assert_eq!(fork.resident_pages(), 1);
        assert_eq!(fork.get(0x1004), Taint::IMEI | Taint::SMS);
        assert_eq!(m.get(0x1004), Taint::IMEI, "original unaffected");

        // Reads and no-op mutations never privatize shared pages.
        let shared_before = fork.page_count() - fork.resident_pages();
        let _ = fork.get(0x2004);
        let _ = fork.range_taint(0x2000, 64);
        fork.set(0x5_0000, Taint::CLEAR); // unmapped, stays unmapped
        fork.clear_range(0x2_0000, 64); // unmapped span
        assert_eq!(fork.page_count() - fork.resident_pages(), shared_before);

        // Clearing everything on the fork leaves the original intact.
        fork.clear_range(0x1000, 2 * PAGE_SIZE as u32);
        assert_eq!(fork.tainted_bytes(), 0);
        assert_eq!(m.tainted_bytes(), 2 * PAGE_SIZE);
        assert_eq!(m.tainted_entries().len(), 2 * PAGE_SIZE);
    }

    #[test]
    fn cow_copy_range_across_pages_after_clone() {
        let mut m = TaintMap::new();
        m.set_range(0x1FF0, 32, Taint::CONTACTS);
        let mut fork = m.clone();
        fork.copy_range(0x4FFB, 0x1FF0, 32);
        assert_eq!(fork.range_taint(0x4FFB, 32), Taint::CONTACTS);
        assert_eq!(m.range_taint(0x4FFB, 32), Taint::CLEAR);
        assert_eq!(fork.range_taint(0x1FF0, 32), Taint::CONTACTS, "source intact");
    }

    #[test]
    fn object_taints_keyed_by_indirect_ref() {
        let mut s = ShadowState::new();
        let r = IndirectRef(0xa890_0025);
        assert_eq!(s.object_taint(r), Taint::CLEAR);
        s.taint_object(r, Taint::IMEI);
        s.taint_object(r, Taint::SMS);
        assert_eq!(s.object_taint(r), Taint::IMEI | Taint::SMS);
    }

    #[test]
    fn clear_regs_resets() {
        let mut s = ShadowState::new();
        s.regs[0] = Taint::IMEI;
        s.vfp[3] = Taint::SMS;
        s.clear_regs();
        assert!(s.regs.iter().all(|t| t.is_clear()));
        assert!(s.vfp.iter().all(|t| t.is_clear()));
    }
}
