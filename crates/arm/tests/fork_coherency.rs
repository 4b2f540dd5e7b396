//! Cache coherency at page seams and across forks.
//!
//! A guest store that **straddles a page boundary** patches code on
//! two pages with one write; the superblock cache must invalidate
//! *both* pages (a single-page invalidation would keep serving the
//! stale half). And a cache carried warm across a [`Memory::fork`]
//! must apply exactly the same rules against the fork's pages.

use ndroid_arm::asm::encoding_of;
use ndroid_arm::block::{build_block, BlockCache};
use ndroid_arm::mem::PAGE_SIZE;
use ndroid_arm::{Memory, Reg};

/// Last ARM instruction slot of page 1 and first of page 2.
const LO_PC: u32 = PAGE_SIZE as u32 * 2 - 4;
const HI_PC: u32 = PAGE_SIZE as u32 * 2;

/// Lays one `mov rN, #imm` on each side of the page-1/page-2 seam
/// plus a terminator, so both pages hold decodable code.
fn seam_code(mem: &mut Memory, lo_imm: u32, hi_imm: u32) {
    mem.write_u32(LO_PC, encoding_of(|a| a.mov_imm(Reg::R0, lo_imm).unwrap()));
    mem.write_u32(HI_PC, encoding_of(|a| a.mov_imm(Reg::R1, hi_imm).unwrap()));
    mem.write_u32(HI_PC + 4, encoding_of(|a| a.bx(Reg::LR)));
}

/// Fills the cache at the seam and returns it primed (one block per
/// page, all lookups hitting).
fn primed_cache(mem: &Memory) -> BlockCache {
    let mut blocks = BlockCache::new();
    for pc in [LO_PC, HI_PC] {
        assert!(blocks.lookup(mem, pc, false).is_none());
        let block = build_block(mem, pc, false, |_| false).expect("block");
        blocks.insert(mem, block);
        assert!(blocks.lookup(mem, pc, false).is_some());
    }
    blocks
}

#[test]
fn straddling_code_patch_invalidates_both_pages() {
    let mut mem = Memory::new();
    seam_code(&mut mem, 1, 2);
    let mut blocks = primed_cache(&mem);

    // One unaligned u32 store across the seam: its low half lands on
    // page 1 (tail of the LO_PC encoding), its high half on page 2
    // (head of the HI_PC encoding).
    mem.write_u32(HI_PC - 2, 0xE1A0_E1A0);

    assert!(
        blocks.lookup(&mem, LO_PC, false).is_none(),
        "low page stale"
    );
    assert!(
        blocks.lookup(&mem, HI_PC, false).is_none(),
        "high page stale"
    );
    assert_eq!(
        blocks.invalidations, 2,
        "block cache must invalidate both straddled pages"
    );
}

#[test]
fn carried_cache_catches_straddling_patch_after_fork() {
    let mut mem = Memory::new();
    seam_code(&mut mem, 1, 2);
    let blocks = primed_cache(&mem);

    // Fork memory and carry the cache warm, the snapshot way.
    let mut fmem = mem.fork();
    let mut fblocks = blocks.clone();
    fblocks.rebind_epoch(fmem.epoch());
    assert!(
        fblocks.lookup(&fmem, LO_PC, false).is_some(),
        "carried warm"
    );
    assert!(
        fblocks.lookup(&fmem, HI_PC, false).is_some(),
        "carried warm"
    );

    // The straddling patch in the fork privatizes both CoW pages and
    // must invalidate both in the carried cache...
    fmem.write_u32(HI_PC - 2, 0xE1A0_E1A0);
    assert!(fblocks.lookup(&fmem, LO_PC, false).is_none());
    assert!(fblocks.lookup(&fmem, HI_PC, false).is_none());
    assert_eq!(fblocks.invalidations, 2);

    // ...while the parent's cache still serves the parent's untouched
    // pages without a single invalidation.
    let mut pblocks = blocks;
    assert!(pblocks.lookup(&mem, LO_PC, false).is_some());
    assert_eq!(pblocks.invalidations, 0);
}
