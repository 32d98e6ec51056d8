//! Simulated device global memory.
//!
//! Buffers live in a per-device table of slots, one table per element kind;
//! each allocation is assigned a disjoint *virtual byte address range* so the
//! coalescing and cache models can reason about addresses exactly like real
//! hardware would.
//!
//! **Lifetime.** A buffer lives from `alloc_*` until `free_*`, which drops
//! its storage at once. The facade's buffer handles (`alpaka_accsim`) own
//! their slot and free it when the last clone drops, so device memory is
//! sized by the buffers alive, not by every buffer ever allocated.
//!
//! **Ids are recycled, addresses are not.** A freed slot id goes on a free
//! list and is handed to the next allocation of its kind, so the table (and
//! the per-launch [`SharedMem`] view over it) stays as small as the live
//! set. Virtual addresses come from a bump allocator that never goes back:
//! the cache and coalescing models see only addresses, so a launch's
//! statistics do not depend on which buffers were freed before it.
//!
//! Element accessors are *checked*: an unknown or freed buffer handle, or an
//! out-of-range index, surfaces as a structured [`SimError`] (`BadBuffer`)
//! instead of a panic, so host-side misuse degrades into an error the caller
//! can handle. A freed slot holds no elements, so even the unchecked
//! accessors see an empty buffer there, never another buffer's data.

use crate::fault::SimError;

/// Global memory of one simulated device.
#[derive(Debug, Default)]
pub struct DeviceMem {
    f: Slots<f64>,
    i: Slots<i64>,
    next_base: u64,
}

/// The slots of one element kind.
#[derive(Debug, Default)]
struct Slots<T> {
    data: Vec<Vec<T>>,
    /// Virtual base byte address per slot; 0 marks a freed slot (live bases
    /// start at `BASE_ALIGN`).
    base: Vec<u64>,
    /// Freed slot ids, reused last-freed first.
    free: Vec<usize>,
}

impl<T: Copy + Default> Slots<T> {
    fn alloc(&mut self, len: usize, base: u64) -> usize {
        let data = vec![T::default(); len];
        if let Some(id) = self.free.pop() {
            self.data[id] = data;
            self.base[id] = base;
            return id;
        }
        self.data.push(data);
        self.base.push(base);
        self.data.len() - 1
    }

    /// `id` if it names a live slot, else a `BadBuffer` naming it.
    fn live(&self, id: usize, kind: &str) -> Result<usize, SimError> {
        match self.base.get(id) {
            Some(0) => Err(SimError::bad_buffer(format!(
                "{kind} buffer handle {id} was freed"
            ))),
            Some(_) => Ok(id),
            None => Err(SimError::bad_buffer(format!(
                "unknown {kind} buffer handle {id}"
            ))),
        }
    }

    fn free(&mut self, id: usize, kind: &str) -> Result<(), SimError> {
        self.live(id, kind)?;
        self.data[id] = Vec::new();
        self.base[id] = 0;
        self.free.push(id);
        Ok(())
    }

    fn bytes(&self) -> usize {
        self.data.iter().map(|b| b.len() * 8).sum()
    }

    fn raw(&mut self) -> Vec<(*mut T, usize)> {
        self.data
            .iter_mut()
            .map(|b| (b.as_mut_ptr(), b.len()))
            .collect()
    }
}

/// Handle to a simulated f64 buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimBufF(pub usize);
/// Handle to a simulated i64 buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimBufI(pub usize);

const BASE_ALIGN: u64 = 256;

impl DeviceMem {
    pub fn new() -> Self {
        DeviceMem {
            next_base: BASE_ALIGN,
            ..Default::default()
        }
    }

    fn bump(&mut self, bytes: u64) -> u64 {
        let base = self.next_base;
        self.next_base += bytes.div_ceil(BASE_ALIGN) * BASE_ALIGN + BASE_ALIGN;
        base
    }

    pub fn alloc_f(&mut self, len: usize) -> SimBufF {
        let base = self.bump(len as u64 * 8);
        SimBufF(self.f.alloc(len, base))
    }

    pub fn alloc_i(&mut self, len: usize) -> SimBufI {
        let base = self.bump(len as u64 * 8);
        SimBufI(self.i.alloc(len, base))
    }

    /// Release an f64 buffer's storage; its id may be reissued, its
    /// addresses never are. Freeing a freed or unknown handle is `BadBuffer`.
    pub fn free_f(&mut self, b: SimBufF) -> Result<(), SimError> {
        self.f.free(b.0, "f64")
    }
    /// Release an i64 buffer's storage; see [`DeviceMem::free_f`].
    pub fn free_i(&mut self, b: SimBufI) -> Result<(), SimError> {
        self.i.free(b.0, "i64")
    }

    pub fn f(&self, b: SimBufF) -> &[f64] {
        &self.f.data[b.0]
    }
    pub fn f_mut(&mut self, b: SimBufF) -> &mut Vec<f64> {
        &mut self.f.data[b.0]
    }
    pub fn i(&self, b: SimBufI) -> &[i64] {
        &self.i.data[b.0]
    }
    pub fn i_mut(&mut self, b: SimBufI) -> &mut Vec<i64> {
        &mut self.i.data[b.0]
    }

    /// Checked variants of the slice accessors: an unknown handle (e.g. one
    /// minted by a different device) or a freed one is a `BadBuffer` error
    /// instead of a panic or an empty buffer.
    pub fn try_f(&self, b: SimBufF) -> Result<&[f64], SimError> {
        Ok(&self.f.data[self.f.live(b.0, "f64")?])
    }
    pub fn try_f_mut(&mut self, b: SimBufF) -> Result<&mut Vec<f64>, SimError> {
        let id = self.f.live(b.0, "f64")?;
        Ok(&mut self.f.data[id])
    }
    pub fn try_i(&self, b: SimBufI) -> Result<&[i64], SimError> {
        Ok(&self.i.data[self.i.live(b.0, "i64")?])
    }
    pub fn try_i_mut(&mut self, b: SimBufI) -> Result<&mut Vec<i64>, SimError> {
        let id = self.i.live(b.0, "i64")?;
        Ok(&mut self.i.data[id])
    }

    /// Virtual byte address of element `idx` of an f64 buffer.
    #[inline]
    pub fn addr_f(&self, b: SimBufF, idx: u64) -> u64 {
        self.f.base[b.0] + idx * 8
    }
    #[inline]
    pub fn addr_i(&self, b: SimBufI, idx: u64) -> u64 {
        self.i.base[b.0] + idx * 8
    }

    /// Bytes held by live buffers.
    pub fn allocated_bytes(&self) -> usize {
        self.f.bytes() + self.i.bytes()
    }

    /// A view that multiple interpreter workers can read and write
    /// concurrently. Borrows the memory mutably, so no `&mut DeviceMem`
    /// access is possible while the view is alive.
    pub fn shared_view(&mut self) -> SharedMem<'_> {
        SharedMem {
            bufs_f: self.f.raw(),
            bufs_i: self.i.raw(),
            base_f: &self.f.base,
            base_i: &self.i.base,
            _mem: std::marker::PhantomData,
        }
    }
}

/// Concurrent element-wise view of a [`DeviceMem`] for parallel block
/// interpretation.
///
/// Every element access goes through a relaxed `AtomicU64` (same size and
/// alignment as the stored `f64`/`i64`), so concurrent accesses to the
/// *same* element are well-defined even if a simulated kernel races on it
/// (the simulator's parallel path additionally refuses kernels with global
/// atomics, see `alpaka_sim::interp`). On x86-64 a relaxed load/store
/// compiles to a plain `mov`, so the serial interpreter path loses nothing.
/// A freed slot is an entry of length 0: every access to it is out of bounds.
pub struct SharedMem<'a> {
    bufs_f: Vec<(*mut f64, usize)>,
    bufs_i: Vec<(*mut i64, usize)>,
    base_f: &'a [u64],
    base_i: &'a [u64],
    _mem: std::marker::PhantomData<&'a mut DeviceMem>,
}

// SAFETY: the raw buffer pointers come from a `&mut DeviceMem` borrowed for
// the view's lifetime, so nothing else touches the buffers while workers
// hold `&SharedMem`; element accesses themselves are atomic.
unsafe impl Send for SharedMem<'_> {}
unsafe impl Sync for SharedMem<'_> {}

impl SharedMem<'_> {
    #[inline]
    fn cell_f(&self, b: SimBufF, idx: usize) -> Result<&std::sync::atomic::AtomicU64, SimError> {
        let &(ptr, len) = self
            .bufs_f
            .get(b.0)
            .ok_or_else(|| SimError::bad_buffer(format!("unknown f64 buffer handle {}", b.0)))?;
        if idx >= len {
            return Err(SimError::bad_buffer(format!(
                "f64 buffer index {idx} out of bounds ({len})"
            )));
        }
        // SAFETY: in-bounds element of a live, 8-aligned f64 allocation.
        Ok(unsafe { std::sync::atomic::AtomicU64::from_ptr(ptr.add(idx) as *mut u64) })
    }

    #[inline]
    fn cell_i(&self, b: SimBufI, idx: usize) -> Result<&std::sync::atomic::AtomicU64, SimError> {
        let &(ptr, len) = self
            .bufs_i
            .get(b.0)
            .ok_or_else(|| SimError::bad_buffer(format!("unknown i64 buffer handle {}", b.0)))?;
        if idx >= len {
            return Err(SimError::bad_buffer(format!(
                "i64 buffer index {idx} out of bounds ({len})"
            )));
        }
        // SAFETY: in-bounds element of a live, 8-aligned i64 allocation.
        Ok(unsafe { std::sync::atomic::AtomicU64::from_ptr(ptr.add(idx) as *mut u64) })
    }

    /// Raw pointer + length of a buffer, for the compiled engine's
    /// pre-resolved access sites (element accesses stay relaxed-atomic).
    #[inline]
    pub(crate) fn raw_f(&self, b: SimBufF) -> (*mut f64, usize) {
        self.bufs_f[b.0]
    }
    #[inline]
    pub(crate) fn raw_i(&self, b: SimBufI) -> (*mut i64, usize) {
        self.bufs_i[b.0]
    }

    #[inline]
    pub fn len_f(&self, b: SimBufF) -> usize {
        self.bufs_f[b.0].1
    }
    #[inline]
    pub fn len_i(&self, b: SimBufI) -> usize {
        self.bufs_i[b.0].1
    }

    #[inline]
    pub fn read_f(&self, b: SimBufF, idx: usize) -> Result<f64, SimError> {
        Ok(f64::from_bits(
            self.cell_f(b, idx)?
                .load(std::sync::atomic::Ordering::Relaxed),
        ))
    }
    #[inline]
    pub fn write_f(&self, b: SimBufF, idx: usize, v: f64) -> Result<(), SimError> {
        self.cell_f(b, idx)?
            .store(v.to_bits(), std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
    #[inline]
    pub fn read_i(&self, b: SimBufI, idx: usize) -> Result<i64, SimError> {
        Ok(self
            .cell_i(b, idx)?
            .load(std::sync::atomic::Ordering::Relaxed) as i64)
    }
    #[inline]
    pub fn write_i(&self, b: SimBufI, idx: usize, v: i64) -> Result<(), SimError> {
        self.cell_i(b, idx)?
            .store(v as u64, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    #[inline]
    pub fn addr_f(&self, b: SimBufF, idx: u64) -> u64 {
        self.base_f[b.0] + idx * 8
    }
    #[inline]
    pub fn addr_i(&self, b: SimBufI, idx: u64) -> u64 {
        self.base_i[b.0] + idx * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_get_disjoint_address_ranges() {
        let mut m = DeviceMem::new();
        let a = m.alloc_f(100);
        let b = m.alloc_f(100);
        let end_a = m.addr_f(a, 99) + 8;
        let start_b = m.addr_f(b, 0);
        assert!(start_b >= end_a, "ranges overlap");
        assert_eq!(m.addr_f(a, 1) - m.addr_f(a, 0), 8);
    }

    #[test]
    fn mixed_type_allocations() {
        let mut m = DeviceMem::new();
        let f = m.alloc_f(4);
        let i = m.alloc_i(4);
        m.f_mut(f)[2] = 1.5;
        m.i_mut(i)[3] = -7;
        assert_eq!(m.f(f)[2], 1.5);
        assert_eq!(m.i(i)[3], -7);
        assert_eq!(m.allocated_bytes(), 64);
        assert_ne!(m.addr_f(f, 0), m.addr_i(i, 0));
    }

    #[test]
    fn shared_view_round_trips_and_is_concurrent() {
        let mut m = DeviceMem::new();
        let f = m.alloc_f(64);
        let i = m.alloc_i(64);
        m.f_mut(f)[1] = 2.5;
        {
            let view = m.shared_view();
            assert_eq!(view.len_f(f), 64);
            assert_eq!(view.read_f(f, 1).unwrap(), 2.5);
            assert_eq!(view.addr_f(f, 3) - view.addr_f(f, 0), 24);
            std::thread::scope(|s| {
                for w in 0..4usize {
                    let view = &view;
                    s.spawn(move || {
                        for k in (w..64).step_by(4) {
                            view.write_f(f, k, k as f64).unwrap();
                            view.write_i(i, k, -(k as i64)).unwrap();
                        }
                    });
                }
            });
        }
        assert!((0..64).all(|k| m.f(f)[k] == k as f64 && m.i(i)[k] == -(k as i64)));
    }

    #[test]
    fn host_oob_is_an_error_not_a_panic() {
        use crate::fault::SimErrorKind;
        let mut m = DeviceMem::new();
        let f = m.alloc_f(4);
        let i = m.alloc_i(4);
        let view = m.shared_view();
        let e = view.read_f(f, 4).unwrap_err();
        assert_eq!(e.kind, SimErrorKind::BadBuffer);
        assert!(e.msg.contains("out of bounds"), "{e}");
        assert!(view.write_f(f, 99, 0.0).is_err());
        assert!(view.read_i(i, 4).is_err());
        assert!(view.write_i(i, 4, 0).is_err());
        // Unknown handles (e.g. from another device) also error.
        assert!(view.read_f(SimBufF(7), 0).is_err());
        drop(view);
        assert!(m.try_f(SimBufF(7)).is_err());
        assert!(m.try_i_mut(SimBufI(7)).is_err());
        assert!(m.try_f(f).is_ok());
        assert_eq!(m.try_i(i).unwrap().len(), 4);
    }

    #[test]
    fn a_freed_slot_is_bad_buffer_everywhere() {
        use crate::fault::SimErrorKind::BadBuffer;
        let mut m = DeviceMem::new();
        let (f, keep_f) = (m.alloc_f(4), m.alloc_f(4));
        let (i, keep_i) = (m.alloc_i(4), m.alloc_i(4));
        m.f_mut(keep_f).fill(7.0);
        m.i_mut(keep_i).fill(7);
        m.free_f(f).unwrap();
        m.free_i(i).unwrap();
        assert_eq!(m.allocated_bytes(), 64);
        for e in [
            m.try_f(f).unwrap_err(),
            m.try_f_mut(f).unwrap_err(),
            m.try_i(i).unwrap_err(),
            m.try_i_mut(i).unwrap_err(),
        ] {
            assert_eq!(e.kind, BadBuffer);
            assert!(e.msg.contains("handle 0 was freed"), "{e}");
        }
        // The unchecked accessors see an empty buffer, not a neighbour.
        assert!(m.f(f).is_empty() && m.i(i).is_empty());
        {
            let view = m.shared_view();
            assert_eq!((view.raw_f(f).1, view.raw_i(i).1), (0, 0));
            assert_eq!(view.read_f(f, 0).unwrap_err().kind, BadBuffer);
            assert_eq!(view.write_i(i, 0, 1).unwrap_err().kind, BadBuffer);
            assert_eq!(view.read_f(keep_f, 3).unwrap(), 7.0);
        }
        // A double free and an unknown id are errors, not panics.
        assert_eq!(m.free_f(f).unwrap_err().kind, BadBuffer);
        assert_eq!(m.free_i(i).unwrap_err().kind, BadBuffer);
        assert_eq!(m.free_f(SimBufF(9)).unwrap_err().kind, BadBuffer);
        assert_eq!(m.free_i(SimBufI(9)).unwrap_err().kind, BadBuffer);
        assert_eq!(m.i(keep_i), [7; 4]);
    }

    #[test]
    fn ids_are_recycled_and_addresses_are_not() {
        let mut m = DeviceMem::new();
        let a = m.alloc_f(100);
        let end_a = m.addr_f(a, 99) + 8;
        let b = m.alloc_f(4);
        m.free_f(a).unwrap();
        let c = m.alloc_f(100);
        assert_eq!(c, a, "the freed id is reissued");
        assert!(m.addr_f(c, 0) > m.addr_f(b, 0) && m.addr_f(c, 0) > end_a);
        assert_eq!(m.f(c), [0.0; 100], "a reissued slot starts zeroed");
        assert_eq!(m.allocated_bytes(), 104 * 8);
    }

    #[test]
    fn bases_are_aligned() {
        let mut m = DeviceMem::new();
        let a = m.alloc_f(3); // odd size
        let b = m.alloc_f(3);
        assert_eq!(m.addr_f(a, 0) % BASE_ALIGN, 0);
        assert_eq!(m.addr_f(b, 0) % BASE_ALIGN, 0);
    }
}
