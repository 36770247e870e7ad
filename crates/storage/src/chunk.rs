//! Fixed-size copy-on-write chunks: the unit a fork copies.
//!
//! Atom rows and link postings are slot-addressed arrays. Both are split
//! into chunks of [`CHUNK`] slots behind a small directory of `Arc`s — the
//! directory → bucket layout of grid files (Joshi et al.), used here as the
//! unit of copying rather than of search. Cloning a [`Chunked`] copies the
//! directory only; the first write to a slot afterwards copies the one chunk
//! that holds it (`Arc::make_mut`), and every other chunk stays shared with
//! the origin. A write after a fork therefore costs O(directory + `CHUNK`),
//! not O(store).

use std::sync::Arc;

/// Slots per chunk. A power of two, so a slot splits into a directory
/// index and an offset by shift and mask. At 32, a chunk of rows (16 B a
/// slot) or of postings (24 B a slot) plus its `Arc` header stays below
/// 1 KiB, the largest block glibc's allocator serves from its per-thread
/// cache; a 64-slot row chunk is 1040 B, and copying one measured 1.6×
/// slower than copying 63 slots (2-vCPU x86-64 host).
pub const CHUNK: usize = 32;
const SHIFT: u32 = CHUNK.trailing_zeros();
const MASK: usize = CHUNK - 1;

/// A slot-addressed array stored as `Arc`-shared chunks of [`CHUNK`]
/// slots. Slots past the last chunk read as absent.
#[derive(Clone, Debug)]
pub(crate) struct Chunked<T> {
    chunks: Vec<Arc<[T; CHUNK]>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<T: Clone + Default> Chunked<T> {
    /// The value in `slot`, or `None` past the directory.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        let s = slot as usize;
        self.chunks.get(s >> SHIFT).and_then(|c| c.get(s & MASK))
    }

    /// Mutable access to `slot` without growing the directory; copies the
    /// chunk first if a fork still shares it.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        let s = slot as usize;
        let chunk = self.chunks.get_mut(s >> SHIFT)?;
        Arc::make_mut(chunk).get_mut(s & MASK)
    }

    /// Mutable access to `slot`, growing the directory with empty chunks
    /// to reach it; copies the chunk first if a fork still shares it.
    pub(crate) fn entry(&mut self, slot: u32) -> &mut T {
        let s = slot as usize;
        let ci = s >> SHIFT;
        if ci >= self.chunks.len() {
            self.chunks
                .resize_with(ci + 1, || Arc::new(std::array::from_fn(|_| T::default())));
        }
        // check: allow(panic, "the directory was grown past ci above, and a masked offset is below CHUNK")
        &mut Arc::make_mut(&mut self.chunks[ci])[s & MASK]
    }

    /// Every slot's value in slot order, from slot 0 to the end of the last
    /// chunk.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The chunk directory.
    pub(crate) fn chunks(&self) -> &[Arc<[T; CHUNK]>] {
        &self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_grows_and_get_reads_back_across_chunk_boundaries() {
        let mut c: Chunked<u32> = Chunked::default();
        let k = CHUNK as u32;
        let edges = [0, k - 1, k, k + 1, 2 * k - 1, 2 * k];
        for s in edges {
            *c.entry(s) = s + 1;
        }
        assert_eq!(c.chunks().len(), 3);
        for s in edges {
            assert_eq!(c.get(s), Some(&(s + 1)));
        }
        assert_eq!(c.get(1), Some(&0), "untouched slots of a chunk are default");
        assert_eq!(c.get(3 * k), None, "past the directory");
        assert!(c.get_mut(3 * k).is_none(), "get_mut never grows");
        let all: Vec<u32> = c.iter().copied().collect();
        assert_eq!(all.len(), 3 * CHUNK);
        assert_eq!(
            (all[CHUNK - 1], all[CHUNK], all[2 * CHUNK]),
            (k, k + 1, 2 * k + 1)
        );
    }

    #[test]
    fn a_write_after_clone_copies_one_chunk() {
        let mut origin: Chunked<u32> = Chunked::default();
        for s in 0..(4 * CHUNK as u32) {
            *origin.entry(s) = s;
        }
        let mut fork = origin.clone();
        *fork.get_mut(CHUNK as u32 + 6).unwrap() = 0;
        let shared = origin
            .chunks()
            .iter()
            .zip(fork.chunks())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared, 3, "only the chunk holding the slot is copied");
        assert_eq!(origin.get(CHUNK as u32 + 6), Some(&(CHUNK as u32 + 6)));
        assert_eq!(fork.get(CHUNK as u32 + 6), Some(&0));
    }
}
