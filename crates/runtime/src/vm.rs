//! Anonymous virtual-memory mappings for the slab allocator.
//!
//! The slab allocator in `pop-core` needs three things the global allocator
//! cannot give it:
//!
//! 1. **Alignment to the slab size** (64 KiB), so a slot pointer recovers its
//!    slab header with one mask, and the retire pipeline can route every
//!    slot of a slab to the same fill bin.
//! 2. **Page-granular release**: [`release_pages`] hands a range back to the
//!    OS with `madvise(MADV_DONTNEED)` while the mapping itself stays valid
//!    (type-stable memory — stale readers may still load from freed slots
//!    and must fault in zeros, never SIGSEGV). This module only provides the
//!    call; *when* an empty slab's payload pages are worth releasing is the
//!    allocator's decision (`pop_core::slab` keeps a bounded number of empty
//!    slabs resident and releases the overflow), because a release costs a
//!    system call, a TLB shootdown into every thread of the process, and a
//!    page fault per page when the memory is wanted again.
//! 3. **No interaction with the global allocator**, so the steady-state
//!    allocation-free reclamation passes stay allocation-free.
//!
//! Off Linux the module still compiles: [`aligned_map`] falls back to an
//! aligned `std::alloc` allocation and [`release_pages`] reports `false`
//! (nothing returned to the OS), which callers surface as a zero
//! `slab_released_bytes` gauge rather than an error.

/// Maps `len` bytes of zeroed anonymous memory aligned to `align`.
///
/// `len` and `align` must be non-zero multiples of the page size and `align`
/// a power of two. Returns `None` if the kernel refuses the mapping.
#[cfg(target_os = "linux")]
pub fn aligned_map(len: usize, align: usize) -> Option<*mut u8> {
    assert!(align.is_power_of_two(), "align must be a power of two");
    assert!(
        len > 0 && len.is_multiple_of(align),
        "len must be a multiple of align"
    );
    // Over-map by the alignment, then trim the head and tail so the surviving
    // window starts on an `align` boundary. mmap only guarantees page
    // alignment, so this is the portable way to get 64 KiB-aligned slabs.
    let span = len.checked_add(align)?;
    // SAFETY: a fresh private anonymous mapping at a kernel-chosen address
    // aliases no existing memory; failure is reported as MAP_FAILED.
    let raw = unsafe {
        libc::mmap(
            core::ptr::null_mut(),
            span,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if raw == libc::MAP_FAILED {
        return None;
    }
    let base = raw as usize;
    let aligned = (base + align - 1) & !(align - 1);
    let head = aligned - base;
    let tail = span - head - len;
    // SAFETY: `[raw, aligned)` and `[aligned + len, raw + span)` lie inside
    // the mapping made above, are page-aligned (mmap and `align` both are),
    // and nothing has referenced them yet.
    unsafe {
        if head > 0 {
            libc::munmap(raw, head);
        }
        if tail > 0 {
            libc::munmap((aligned + len) as *mut libc::c_void, tail);
        }
    }
    Some(aligned as *mut u8)
}

/// Fallback for non-Linux hosts: an aligned heap allocation. The memory is
/// zeroed to match the mmap contract; nothing is ever returned to the OS.
#[cfg(not(target_os = "linux"))]
pub fn aligned_map(len: usize, align: usize) -> Option<*mut u8> {
    assert!(align.is_power_of_two(), "align must be a power of two");
    assert!(
        len > 0 && len.is_multiple_of(align),
        "len must be a multiple of align"
    );
    let layout = std::alloc::Layout::from_size_align(len, align).ok()?;
    // SAFETY: `layout` has a non-zero size (asserted above).
    let p = unsafe { std::alloc::alloc_zeroed(layout) };
    if p.is_null() {
        None
    } else {
        Some(p)
    }
}

/// Unmaps a region previously returned by [`aligned_map`].
///
/// # Safety
///
/// `ptr`/`len` must denote exactly one live [`aligned_map`] region, and no
/// reference into it may survive the call. The slab allocator itself never
/// unmaps (slabs are type-stable for the process lifetime); this exists for
/// tests and future shutdown paths.
#[cfg(target_os = "linux")]
pub unsafe fn unmap(ptr: *mut u8, len: usize) {
    // SAFETY: forwarded contract — exactly one live mapping, unreferenced.
    unsafe {
        libc::munmap(ptr as *mut libc::c_void, len);
    }
}

/// Fallback for non-Linux hosts: releases the heap allocation.
///
/// # Safety
///
/// Same contract as the Linux version: exactly one live [`aligned_map`]
/// region, with the same `len` (the alignment is recomputed as `len`'s
/// largest power-of-two divisor — callers here always map `len == align`).
#[cfg(not(target_os = "linux"))]
pub unsafe fn unmap(ptr: *mut u8, len: usize) {
    let align = 1usize << len.trailing_zeros();
    let layout = std::alloc::Layout::from_size_align(len, align).unwrap();
    // SAFETY: forwarded contract — `ptr` came from `alloc_zeroed` with this
    // same layout.
    unsafe { std::alloc::dealloc(ptr, layout) }
}

/// Returns `len` bytes starting at `ptr` to the OS while keeping the mapping
/// valid: subsequent reads fault in zero pages, writes re-commit.
///
/// Returns `true` when the pages were actually released. `false` means the
/// kernel refused (or the host is not Linux) — callers must treat that as
/// "nothing released" and skip the released-bytes accounting, not as an
/// error: the memory is still perfectly usable.
pub fn release_pages(ptr: *mut u8, len: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `madvise` validates the range itself (an unmapped or
        // unaligned one fails with an errno), and MADV_DONTNEED leaves the
        // mapping valid — later reads fault in zero pages.
        let rc = unsafe { libc::madvise(ptr as *mut libc::c_void, len, libc::MADV_DONTNEED) };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (ptr, len);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLAB: usize = 1 << 16;

    #[test]
    fn map_is_aligned_and_zeroed() {
        let p = aligned_map(SLAB, SLAB).expect("map");
        assert_eq!(p as usize & (SLAB - 1), 0, "not 64 KiB aligned");
        unsafe {
            assert_eq!(p.read(), 0);
            assert_eq!(p.add(SLAB - 1).read(), 0);
            unmap(p, SLAB);
        }
    }

    #[test]
    fn many_maps_all_distinct_and_aligned() {
        let mut ptrs = Vec::new();
        for _ in 0..32 {
            let p = aligned_map(SLAB, SLAB).expect("map");
            assert_eq!(p as usize & (SLAB - 1), 0);
            assert!(!ptrs.contains(&(p as usize)));
            ptrs.push(p as usize);
        }
        for p in ptrs {
            unsafe { unmap(p as *mut u8, SLAB) };
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn release_pages_zeroes_but_keeps_mapping() {
        let p = aligned_map(SLAB, SLAB).expect("map");
        unsafe {
            p.write(0x5A);
            p.add(SLAB - 1).write(0xA5);
        }
        assert!(release_pages(p, SLAB), "madvise refused on plain Linux");
        unsafe {
            // The mapping survives; the contents do not.
            assert_eq!(p.read(), 0);
            assert_eq!(p.add(SLAB - 1).read(), 0);
            // And it is still writable (pages re-commit on demand).
            p.write(7);
            assert_eq!(p.read(), 7);
            unmap(p, SLAB);
        }
    }

    #[test]
    fn multi_slab_map_supports_partial_release() {
        let p = aligned_map(4 * SLAB, SLAB).expect("map");
        unsafe {
            for i in 0..4 {
                p.add(i * SLAB).write(i as u8 + 1);
            }
            if release_pages(p.add(SLAB), SLAB) {
                assert_eq!(p.read(), 1, "neighbour slab must be untouched");
                assert_eq!(p.add(SLAB).read(), 0, "released slab reads zero");
                assert_eq!(p.add(2 * SLAB).read(), 3);
            }
            unmap(p, 4 * SLAB);
        }
    }
}
