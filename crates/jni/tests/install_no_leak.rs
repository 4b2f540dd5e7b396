//! Installing the JNI function table must not leak: every boot builds a
//! fresh [`HostTable`], so anything `install_jni` leaks is paid again
//! per analyzed app and grows a long-running farm or service without
//! bound. A counting global allocator tracks live heap bytes across
//! repeated install-and-drop cycles.

use ndroid_emu::runtime::HostTable;
use ndroid_jni::install_jni;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` preconditions are passed through.
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this `layout`.
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn repeated_install_and_drop_does_not_grow_the_heap() {
    // Warm-up: the first install initializes the process-wide name list.
    drop({
        let mut t = HostTable::new();
        install_jni(&mut t);
        t
    });

    let before = live();
    let mut table = HostTable::new();
    install_jni(&mut table);
    let one_boot = live() - before;
    drop(table);
    assert!(one_boot > 0, "an installed table occupies the heap");

    let before = live();
    for _ in 0..100 {
        let mut t = HostTable::new();
        install_jni(&mut t);
    }
    let growth = live() - before;
    assert!(
        growth < one_boot,
        "100 install/drop cycles grew the heap by {growth} bytes \
         (one installed table is {one_boot} bytes)"
    );
}
