//! The memory model: allocations with abstract bytes, liveness, bounds,
//! alignment and stacked-borrows enforcement.

use crate::borrows::{BorrowStack, PopInfo, RetagKind};
use crate::diagnostics::UbKind;
use crate::value::{AbByte, AllocId, BorTag};
use std::collections::HashMap;

/// What kind of memory an allocation is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocKind {
    /// A stack slot of a local variable.
    Stack,
    /// Heap memory from `alloc`/`box_new`.
    Heap,
    /// Backing store of a `static`.
    Static,
}

/// Why an allocation is no longer accessible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadReason {
    /// Explicitly deallocated.
    Freed,
    /// Its lexical scope or stack frame ended.
    ScopeEnded,
}

/// One allocation.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Kind of memory.
    pub kind: AllocKind,
    /// Size in bytes.
    pub size: usize,
    /// Required alignment.
    pub align: usize,
    /// Base (virtual) address.
    pub base: u64,
    /// Liveness; dead allocations keep their metadata for diagnostics.
    pub live: bool,
    /// Why the allocation died, when dead.
    pub dead_reason: Option<DeadReason>,
    /// Bytes.
    pub bytes: Vec<AbByte>,
    /// Stacked-borrows state.
    pub stack: BorrowStack,
}

/// The machine's memory.
#[derive(Debug, Default)]
pub struct Memory {
    allocs: Vec<Allocation>,
    next_base: u64,
    next_tag: BorTag,
    /// Tombstones of popped borrow-stack items, for diagnosis.
    pub popped: HashMap<BorTag, PopInfo>,
}

/// Result of a memory operation.
pub type MemResult<T> = Result<T, UbKind>;

impl Memory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Memory {
        Memory {
            next_base: 0x1000,
            next_tag: 1,
            ..Memory::default()
        }
    }

    fn fresh_tag(&mut self) -> BorTag {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    /// Allocates `size` bytes with `align`, returning the id, base borrow
    /// tag and base address.
    pub fn allocate(
        &mut self,
        kind: AllocKind,
        size: usize,
        align: usize,
    ) -> (AllocId, BorTag, u64) {
        let align = align.max(1);
        let base = self.next_base.div_ceil(align as u64) * align as u64;
        self.next_base = base + size.max(1) as u64 + 32; // guard gap
        let tag = self.fresh_tag();
        let id = AllocId(self.allocs.len() as u32);
        self.allocs.push(Allocation {
            kind,
            size,
            align,
            base,
            live: true,
            dead_reason: None,
            bytes: vec![AbByte::Uninit; size],
            stack: BorrowStack::new(tag),
        });
        (id, tag, base)
    }

    /// Immutable allocation accessor.
    #[must_use]
    pub fn alloc(&self, id: AllocId) -> Option<&Allocation> {
        self.allocs.get(id.0 as usize)
    }

    fn alloc_mut(&mut self, id: AllocId) -> Option<&mut Allocation> {
        self.allocs.get_mut(id.0 as usize)
    }

    /// All live heap allocations (for the leak check).
    #[must_use]
    pub fn live_heap_allocs(&self) -> Vec<AllocId> {
        self.allocs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.live && a.kind == AllocKind::Heap)
            .map(|(i, _)| AllocId(i as u32))
            .collect()
    }

    /// Finds the allocation containing an absolute address, if any.
    #[must_use]
    pub fn alloc_at(&self, addr: u64) -> Option<AllocId> {
        self.allocs.iter().enumerate().find_map(|(i, a)| {
            if addr >= a.base && addr < a.base + a.size.max(1) as u64 {
                Some(AllocId(i as u32))
            } else {
                None
            }
        })
    }

    /// Deallocates, enforcing layout agreement and single-free.
    ///
    /// # Errors
    ///
    /// [`UbKind::DoubleFree`], [`UbKind::BadDealloc`], or
    /// [`UbKind::UseAfterScope`]-adjacent errors via bad ids.
    pub fn deallocate(&mut self, id: AllocId, size: usize, align: usize) -> MemResult<()> {
        let a = self.alloc_mut(id).ok_or(UbKind::UseAfterFree)?;
        if !a.live {
            return Err(UbKind::DoubleFree);
        }
        if a.kind != AllocKind::Heap {
            return Err(UbKind::BadDealloc);
        }
        if a.size != size || a.align != align {
            return Err(UbKind::BadDealloc);
        }
        a.live = false;
        a.dead_reason = Some(DeadReason::Freed);
        Ok(())
    }

    /// Kills a stack allocation at scope/frame end.
    pub fn kill_stack_slot(&mut self, id: AllocId) {
        if let Some(a) = self.alloc_mut(id) {
            if a.live {
                a.live = false;
                a.dead_reason = Some(DeadReason::ScopeEnded);
            }
        }
    }

    /// Validates an access (liveness, bounds, alignment, stacked borrows),
    /// without touching bytes. `offset` is in bytes from the base.
    ///
    /// # Errors
    ///
    /// The precise [`UbKind`] of whichever check fails first.
    pub fn check_access(
        &mut self,
        id: AllocId,
        tag: BorTag,
        offset: i64,
        len: usize,
        required_align: usize,
        write: bool,
    ) -> MemResult<()> {
        let popped = &mut self.popped;
        let a = self
            .allocs
            .get_mut(id.0 as usize)
            .ok_or(UbKind::UseAfterFree)?;
        if !a.live {
            return Err(match a.dead_reason {
                Some(DeadReason::ScopeEnded) => UbKind::UseAfterScope,
                _ => UbKind::UseAfterFree,
            });
        }
        if offset < 0 || (offset as usize) + len > a.size {
            return Err(UbKind::OutOfBounds);
        }
        let addr = a.base + offset as u64;
        if required_align > 1 && addr % required_align as u64 != 0 {
            return Err(UbKind::UnalignedAccess);
        }
        a.stack.access(tag, write, popped)
    }

    /// Borrows `len` raw bytes in place after validating the access.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check_access`] failures.
    pub fn read_slice(
        &mut self,
        id: AllocId,
        tag: BorTag,
        offset: i64,
        len: usize,
        required_align: usize,
    ) -> MemResult<&[AbByte]> {
        self.check_access(id, tag, offset, len, required_align, false)?;
        let a = self.alloc(id).expect("validated");
        Ok(&a.bytes[offset as usize..offset as usize + len])
    }

    /// Copies `len` raw bytes out after validating the access, for callers
    /// that write them back into memory that may alias the source.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check_access`] failures.
    pub fn read_bytes(
        &mut self,
        id: AllocId,
        tag: BorTag,
        offset: i64,
        len: usize,
        required_align: usize,
    ) -> MemResult<Vec<AbByte>> {
        self.read_slice(id, tag, offset, len, required_align)
            .map(<[AbByte]>::to_vec)
    }

    /// Writes raw bytes after validating the access.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check_access`] failures.
    pub fn write_bytes(
        &mut self,
        id: AllocId,
        tag: BorTag,
        offset: i64,
        bytes: &[AbByte],
        required_align: usize,
    ) -> MemResult<()> {
        self.check_access(id, tag, offset, bytes.len(), required_align, true)?;
        let a = self.alloc_mut(id).expect("validated");
        a.bytes[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Retags: derives a new borrow from `parent` on allocation `id`.
    ///
    /// # Errors
    ///
    /// Stacked-borrows violations from the underlying stack.
    pub fn retag(&mut self, id: AllocId, parent: BorTag, kind: RetagKind) -> MemResult<BorTag> {
        let fresh = self.fresh_tag();
        let popped = &mut self.popped;
        let a = self
            .allocs
            .get_mut(id.0 as usize)
            .ok_or(UbKind::UseAfterFree)?;
        if !a.live {
            return Err(match a.dead_reason {
                Some(DeadReason::ScopeEnded) => UbKind::UseAfterScope,
                _ => UbKind::UseAfterFree,
            });
        }
        a.stack.retag(parent, kind, fresh, popped)?;
        Ok(fresh)
    }

    /// Number of allocations ever made (dead ones included).
    #[must_use]
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_rw() {
        let mut m = Memory::new();
        let (id, tag, base) = m.allocate(AllocKind::Heap, 8, 8);
        assert_eq!(base % 8, 0);
        let data = vec![AbByte::Init(0xAB, None); 4];
        m.write_bytes(id, tag, 0, &data, 4).unwrap();
        let back = m.read_bytes(id, tag, 0, 4, 4).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn uninit_preserved() {
        let mut m = Memory::new();
        let (id, tag, _) = m.allocate(AllocKind::Heap, 4, 4);
        let b = m.read_bytes(id, tag, 0, 4, 1).unwrap();
        assert!(b.iter().all(|x| matches!(x, AbByte::Uninit)));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = Memory::new();
        let (id, tag, _) = m.allocate(AllocKind::Heap, 4, 4);
        assert_eq!(m.read_bytes(id, tag, 2, 4, 1), Err(UbKind::OutOfBounds));
        assert_eq!(m.read_bytes(id, tag, -1, 1, 1), Err(UbKind::OutOfBounds));
    }

    #[test]
    fn unaligned_detected() {
        let mut m = Memory::new();
        let (id, tag, _) = m.allocate(AllocKind::Heap, 8, 8);
        assert_eq!(m.read_bytes(id, tag, 1, 4, 4), Err(UbKind::UnalignedAccess));
        assert!(m.read_bytes(id, tag, 4, 4, 4).is_ok());
    }

    #[test]
    fn use_after_free() {
        let mut m = Memory::new();
        let (id, tag, _) = m.allocate(AllocKind::Heap, 4, 4);
        m.deallocate(id, 4, 4).unwrap();
        assert_eq!(m.read_bytes(id, tag, 0, 1, 1), Err(UbKind::UseAfterFree));
    }

    #[test]
    fn double_free() {
        let mut m = Memory::new();
        let (id, _, _) = m.allocate(AllocKind::Heap, 4, 4);
        m.deallocate(id, 4, 4).unwrap();
        assert_eq!(m.deallocate(id, 4, 4), Err(UbKind::DoubleFree));
    }

    #[test]
    fn bad_layout_dealloc() {
        let mut m = Memory::new();
        let (id, _, _) = m.allocate(AllocKind::Heap, 8, 8);
        assert_eq!(m.deallocate(id, 4, 8), Err(UbKind::BadDealloc));
        assert_eq!(m.deallocate(id, 8, 4), Err(UbKind::BadDealloc));
        assert!(m.deallocate(id, 8, 8).is_ok());
    }

    #[test]
    fn stack_slot_death_classified() {
        let mut m = Memory::new();
        let (id, tag, _) = m.allocate(AllocKind::Stack, 4, 4);
        m.kill_stack_slot(id);
        assert_eq!(m.read_bytes(id, tag, 0, 1, 1), Err(UbKind::UseAfterScope));
    }

    #[test]
    fn dealloc_stack_is_bad() {
        let mut m = Memory::new();
        let (id, _, _) = m.allocate(AllocKind::Stack, 4, 4);
        assert_eq!(m.deallocate(id, 4, 4), Err(UbKind::BadDealloc));
    }

    #[test]
    fn retag_and_alias_violation() {
        let mut m = Memory::new();
        let (id, base, _) = m.allocate(AllocKind::Stack, 4, 4);
        let r1 = m.retag(id, base, RetagKind::Mut).unwrap();
        let r2 = m.retag(id, base, RetagKind::Mut).unwrap();
        // r1 was popped by r2's retag: both-borrows conflict.
        assert_eq!(
            m.check_access(id, r1, 0, 4, 1, true),
            Err(UbKind::ConflictingMutBorrows)
        );
        assert!(m.check_access(id, r2, 0, 4, 1, true).is_ok());
    }

    #[test]
    fn alloc_at_finds_allocation() {
        let mut m = Memory::new();
        let (id, _, base) = m.allocate(AllocKind::Heap, 16, 8);
        assert_eq!(m.alloc_at(base + 3), Some(id));
        assert_eq!(m.alloc_at(base + 16), None);
    }

    #[test]
    fn leak_listing() {
        let mut m = Memory::new();
        let (a, _, _) = m.allocate(AllocKind::Heap, 4, 4);
        let (_s, _, _) = m.allocate(AllocKind::Stack, 4, 4);
        assert_eq!(m.live_heap_allocs(), vec![a]);
        m.deallocate(a, 4, 4).unwrap();
        assert!(m.live_heap_allocs().is_empty());
    }
}
