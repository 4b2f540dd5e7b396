//! The managed heap, with a **moving** (compacting) collector.
//!
//! Since Android 4.0 "the garbage collector moves an object \[and\]
//! updates the indirect reference table with the object's new location.
//! Consequently, native codes will hold valid object pointers every
//! time GC moves objects around" (§II-A). To reproduce the hazard that
//! forces NDroid to key native-side shadow memory by *indirect
//! reference* rather than direct pointer, every object here has a
//! guest-visible **direct address** that [`Heap::compact`] reassigns.

use crate::error::DvmError;
use crate::object::{ArrayKind, HeapObject};
use crate::taint::Taint;
use std::collections::HashMap;
use std::rc::Rc;

/// Stable identity of a heap object (survives GC moves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Base of the guest-visible address range the DVM heap occupies
/// (matches the `0x41xxxxxx` object addresses in the paper's logs).
pub const HEAP_BASE: u32 = 0x4100_0000;

/// Longest array a guest may allocate, in elements (4 MiB of 32-bit
/// slots): thousands of times any workload's largest array, yet far
/// from a host allocation failure, which aborts rather than panics.
pub const MAX_ARRAY_LEN: u32 = 1 << 20;

/// The managed object heap.
///
/// Objects are `Rc`-shared **copy-on-write**: cloning the heap (for a
/// snapshot fork) is one refcount bump per object, and a mutable
/// borrow privatizes just the touched object via `Rc::make_mut` — so
/// thousands of forked scenarios share one warmed-up heap image.
#[derive(Debug, Default, Clone)]
pub struct Heap {
    objects: Vec<Option<Rc<HeapObject>>>,
    direct_addrs: Vec<u32>,
    by_addr: HashMap<u32, ObjectId>,
    next_addr: u32,
    /// Number of compactions performed (each one moves every object).
    pub gc_cycles: u32,
    /// Total bytes conceptually allocated.
    pub bytes_allocated: usize,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap {
            objects: Vec::new(),
            direct_addrs: Vec::new(),
            by_addr: HashMap::new(),
            next_addr: HEAP_BASE,
            gc_cycles: 0,
            bytes_allocated: 0,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.iter().filter(|o| o.is_some()).count()
    }

    /// Whether the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocates `obj`, returning its stable id.
    pub fn alloc(&mut self, obj: HeapObject) -> ObjectId {
        let size = obj.size_bytes();
        self.bytes_allocated += size;
        let id = ObjectId(self.objects.len() as u32);
        let addr = self.next_addr;
        self.next_addr += ((size as u32) + 7) & !7;
        self.objects.push(Some(Rc::new(obj)));
        self.direct_addrs.push(addr);
        self.by_addr.insert(addr, id);
        id
    }

    /// Allocates a zeroed, untainted array of `len` elements, where
    /// `len` is a raw guest `jsize` (read as `i32`, as Dalvik does) —
    /// the one allocation path for `new-array` and JNI
    /// `New<Type>Array`, so no guest length reaches the host allocator
    /// unchecked.
    ///
    /// # Errors
    ///
    /// [`DvmError::NegativeArraySize`] for a negative length and
    /// [`DvmError::ArrayTooLarge`] above [`MAX_ARRAY_LEN`].
    pub fn alloc_array(&mut self, kind: ArrayKind, len: u32) -> Result<ObjectId, DvmError> {
        if (len as i32) < 0 {
            return Err(DvmError::NegativeArraySize(len as i32));
        }
        if len > MAX_ARRAY_LEN {
            return Err(DvmError::ArrayTooLarge(len));
        }
        Ok(self.alloc(HeapObject::Array {
            kind,
            data: vec![0; len as usize],
            taint: Taint::CLEAR,
        }))
    }

    /// Convenience: allocates a string object.
    pub fn alloc_string(&mut self, value: impl Into<String>, taint: Taint) -> ObjectId {
        self.alloc(HeapObject::String {
            value: value.into(),
            taint,
        })
    }

    /// Borrows the object with `id`.
    ///
    /// # Errors
    ///
    /// [`DvmError::DanglingObject`] if the id was freed or never existed.
    pub fn get(&self, id: ObjectId) -> Result<&HeapObject, DvmError> {
        self.objects
            .get(id.0 as usize)
            .and_then(|o| o.as_deref())
            .ok_or(DvmError::DanglingObject(id.0))
    }

    /// Mutably borrows the object with `id`.
    ///
    /// # Errors
    ///
    /// [`DvmError::DanglingObject`] if the id was freed or never existed.
    pub fn get_mut(&mut self, id: ObjectId) -> Result<&mut HeapObject, DvmError> {
        self.objects
            .get_mut(id.0 as usize)
            .and_then(|o| o.as_mut())
            .map(Rc::make_mut)
            .ok_or(DvmError::DanglingObject(id.0))
    }

    /// The object's current guest-visible direct address. **Unstable**:
    /// invalidated by [`compact`](Heap::compact).
    ///
    /// # Errors
    ///
    /// [`DvmError::DanglingObject`] if the id does not resolve.
    pub fn direct_addr(&self, id: ObjectId) -> Result<u32, DvmError> {
        if self.objects.get(id.0 as usize).and_then(|o| o.as_ref()).is_some() {
            Ok(self.direct_addrs[id.0 as usize])
        } else {
            Err(DvmError::DanglingObject(id.0))
        }
    }

    /// Resolves a direct address back to an object id (what
    /// `dvmDecodeIndirectRef`'s inverse lookup does inside the VM).
    pub fn at_addr(&self, addr: u32) -> Option<ObjectId> {
        self.by_addr.get(&addr).copied()
    }

    /// The string contents and taint of a string object.
    ///
    /// # Errors
    ///
    /// [`DvmError::WrongObjectKind`] if `id` is not a string.
    pub fn string(&self, id: ObjectId) -> Result<(&str, Taint), DvmError> {
        match self.get(id)? {
            HeapObject::String { value, taint } => Ok((value.as_str(), *taint)),
            _ => Err(DvmError::WrongObjectKind { expected: "String" }),
        }
    }

    /// **Moving GC**: slides every live object to a fresh address range,
    /// invalidating all previously handed-out direct addresses. Stable
    /// [`ObjectId`]s (and therefore indirect references) survive.
    pub fn compact(&mut self) {
        self.gc_cycles += 1;
        self.by_addr.clear();
        // Start a new address epoch so every address changes.
        let mut addr = HEAP_BASE + 0x0010_0000 * (self.gc_cycles % 0x100);
        for (idx, slot) in self.objects.iter().enumerate() {
            if let Some(obj) = slot {
                self.direct_addrs[idx] = addr;
                self.by_addr.insert(addr, ObjectId(idx as u32));
                addr += ((obj.size_bytes() as u32) + 7) & !7;
            }
        }
        self.next_addr = addr;
    }

    /// Mark-and-sweep collection from explicit roots; unreachable
    /// objects are freed. Reachability follows reference-array elements,
    /// instance reference fields are opaque u32s, so callers pass every
    /// register/reference root explicitly (conservative roots).
    pub fn collect(&mut self, roots: &[ObjectId]) -> usize {
        let mut marked = vec![false; self.objects.len()];
        let mut work: Vec<ObjectId> = roots.to_vec();
        while let Some(id) = work.pop() {
            let idx = id.0 as usize;
            if idx >= marked.len() || marked[idx] || self.objects[idx].is_none() {
                continue;
            }
            marked[idx] = true;
            if let Some(HeapObject::Array {
                kind: crate::object::ArrayKind::Object,
                data,
                ..
            }) = self.objects[idx].as_deref()
            {
                for slot in data {
                    if *slot != 0 {
                        work.push(ObjectId(slot - 1));
                    }
                }
            }
            if let Some(HeapObject::Exception { message, .. }) = self.objects[idx].as_deref() {
                if *message != 0 {
                    work.push(ObjectId(message - 1));
                }
            }
        }
        let mut freed = 0;
        for (idx, slot) in self.objects.iter_mut().enumerate() {
            if slot.is_some() && !marked[idx] {
                self.by_addr.remove(&self.direct_addrs[idx]);
                *slot = None;
                freed += 1;
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_lengths_are_checked_as_jsize() {
        let mut h = Heap::new();
        assert_eq!(
            h.alloc_array(ArrayKind::Primitive, u32::MAX),
            Err(DvmError::NegativeArraySize(-1))
        );
        assert_eq!(
            h.alloc_array(ArrayKind::Byte, MAX_ARRAY_LEN + 1),
            Err(DvmError::ArrayTooLarge(MAX_ARRAY_LEN + 1))
        );
        assert!(h.is_empty(), "a refused length allocates nothing");
        let id = h.alloc_array(ArrayKind::Object, MAX_ARRAY_LEN).unwrap();
        match h.get(id).unwrap() {
            HeapObject::Array { data, .. } => assert_eq!(data.len(), MAX_ARRAY_LEN as usize),
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let id = h.alloc_string("hello", Taint::SMS);
        let (s, t) = h.string(id).unwrap();
        assert_eq!(s, "hello");
        assert_eq!(t, Taint::SMS);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn direct_addresses_are_unique_and_resolvable() {
        let mut h = Heap::new();
        let a = h.alloc_string("a", Taint::CLEAR);
        let b = h.alloc_string("b", Taint::CLEAR);
        let addr_a = h.direct_addr(a).unwrap();
        let addr_b = h.direct_addr(b).unwrap();
        assert_ne!(addr_a, addr_b);
        assert!(addr_a >= HEAP_BASE);
        assert_eq!(h.at_addr(addr_a), Some(a));
        assert_eq!(h.at_addr(addr_b), Some(b));
    }

    #[test]
    fn compact_moves_every_object_but_ids_survive() {
        let mut h = Heap::new();
        let id = h.alloc_string("payload", Taint::IMEI);
        let before = h.direct_addr(id).unwrap();
        h.compact();
        let after = h.direct_addr(id).unwrap();
        assert_ne!(before, after, "moving GC must move the object");
        // Stale address no longer resolves.
        assert_eq!(h.at_addr(before), None);
        assert_eq!(h.at_addr(after), Some(id));
        // Content and taint ride along.
        let (s, t) = h.string(id).unwrap();
        assert_eq!(s, "payload");
        assert_eq!(t, Taint::IMEI);
        assert_eq!(h.gc_cycles, 1);
    }

    #[test]
    fn repeated_compaction_keeps_addresses_fresh() {
        let mut h = Heap::new();
        let id = h.alloc_string("x", Taint::CLEAR);
        let mut seen = std::collections::HashSet::new();
        seen.insert(h.direct_addr(id).unwrap());
        for _ in 0..5 {
            h.compact();
            assert!(
                seen.insert(h.direct_addr(id).unwrap()),
                "each compaction must pick a new address"
            );
        }
    }

    #[test]
    fn collect_frees_unreachable() {
        let mut h = Heap::new();
        let live = h.alloc_string("live", Taint::CLEAR);
        let dead = h.alloc_string("dead", Taint::CLEAR);
        let freed = h.collect(&[live]);
        assert_eq!(freed, 1);
        assert!(h.get(live).is_ok());
        assert!(h.get(dead).is_err());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn collect_traces_object_arrays() {
        let mut h = Heap::new();
        let inner = h.alloc_string("inner", Taint::CLEAR);
        let arr = h.alloc(HeapObject::Array {
            kind: ArrayKind::Object,
            data: vec![inner.0 + 1],
            taint: Taint::CLEAR,
        });
        let freed = h.collect(&[arr]);
        assert_eq!(freed, 0);
        assert!(h.get(inner).is_ok());
    }

    #[test]
    fn dangling_access_errors() {
        let mut h = Heap::new();
        let id = h.alloc_string("x", Taint::CLEAR);
        h.collect(&[]);
        assert_eq!(h.get(id).unwrap_err(), DvmError::DanglingObject(id.0));
        assert!(h.direct_addr(id).is_err());
    }

    #[test]
    fn non_string_rejected_by_string_accessor() {
        let mut h = Heap::new();
        let arr = h.alloc(HeapObject::Array {
            kind: ArrayKind::Primitive,
            data: vec![],
            taint: Taint::CLEAR,
        });
        assert!(matches!(
            h.string(arr),
            Err(DvmError::WrongObjectKind { .. })
        ));
    }
}
