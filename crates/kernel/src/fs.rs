//! Ram filesystem and pipes.
//!
//! The evaluation needs a filesystem (Unixbench-style file I/O, storing
//! executable images for `execve`, the ProFTPD-style upload/download
//! scenario) and pipes (Unixbench pipe throughput and the pipe-based
//! context-switching stress test that is the paper's worst case, §6.2).

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// `open` flag: read-only.
pub const O_RDONLY: u32 = 0;
/// `open` flag: write-only.
pub const O_WRONLY: u32 = 1;
/// `open` flag: read-write.
pub const O_RDWR: u32 = 2;
/// `open` flag: create if missing.
pub const O_CREAT: u32 = 0x40;
/// `open` flag: truncate on open.
pub const O_TRUNC: u32 = 0x200;
/// `open` flag: append on write.
pub const O_APPEND: u32 = 0x400;

/// Largest size a file may reach through `write(2)`: files are host
/// memory, and `lseek` accepts any 32-bit offset, so without a limit one
/// guest byte written far past EOF would zero-fill up to 4 GiB.
pub const MAX_FILE_BYTES: usize = 16 << 20;

/// Simple flat ram filesystem: path → bytes.
#[derive(Debug, Default)]
pub struct RamFs {
    /// `pub(crate)` so [`crate::snapshot`] can serialize files in BTreeMap
    /// (sorted) order — the canonical encoding.
    pub(crate) files: BTreeMap<String, Vec<u8>>,
}

impl RamFs {
    /// Empty filesystem.
    pub fn new() -> RamFs {
        RamFs::default()
    }

    /// Create or replace a file.
    pub fn install(&mut self, path: impl Into<String>, data: Vec<u8>) {
        self.files.insert(path.into(), data);
    }

    /// Whole-file read.
    pub fn file(&self, path: &str) -> Option<&Vec<u8>> {
        self.files.get(path)
    }

    /// Whole-file mutable access (created empty if missing).
    pub fn file_mut(&mut self, path: &str) -> &mut Vec<u8> {
        self.files.entry(path.to_string()).or_default()
    }

    /// Read up to `len` bytes of `path` starting at byte `offset` (the
    /// `read(2)` transfer). Returns `None` if the file does not exist;
    /// reads at or past EOF return an empty vector.
    pub fn read_at(&self, path: &str, offset: usize, len: usize) -> Option<Vec<u8>> {
        let file = self.files.get(path)?;
        let start = offset.min(file.len());
        let n = len.min(file.len() - start);
        Some(file[start..start + n].to_vec())
    }

    /// Write `data` into `path` at `offset` — or at EOF when `append` —
    /// growing (and zero-filling) the file as needed. The file is created
    /// if missing. Returns the offset just past the written bytes. The
    /// caller keeps that offset within [`MAX_FILE_BYTES`]. An empty write
    /// leaves the file's contents alone, even past EOF (POSIX).
    pub fn write_at(&mut self, path: &str, offset: usize, data: &[u8], append: bool) -> usize {
        let file = self.files.entry(path.to_string()).or_default();
        let at = if append { file.len() } else { offset };
        if data.is_empty() {
            return at;
        }
        if file.len() < at + data.len() {
            file.resize(at + data.len(), 0);
        }
        file[at..at + data.len()].copy_from_slice(data);
        at + data.len()
    }

    /// Does the path exist?
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Remove a file; returns whether it existed.
    pub fn remove(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// All paths (sorted — BTreeMap order).
    pub fn paths(&self) -> impl Iterator<Item = &String> {
        self.files.keys()
    }
}

/// Identifier of a pipe in the [`PipeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipeId(pub usize);

/// A unidirectional byte pipe with bounded capacity and endpoint
/// refcounts. Blocking is implemented by the scheduler: syscalls return
/// "would block" and the process is parked on the pipe id.
#[derive(Debug)]
pub struct Pipe {
    /// FIFO contents; `pub(crate)` for [`crate::snapshot`].
    pub(crate) buf: VecDeque<u8>,
    /// Bound on buffered bytes; `pub(crate)` for [`crate::snapshot`].
    pub(crate) capacity: usize,
    /// Open read endpoints.
    pub readers: u32,
    /// Open write endpoints.
    pub writers: u32,
}

/// Default pipe capacity (Linux's historic 4 KiB).
pub const PIPE_CAPACITY: usize = 4096;

impl Pipe {
    pub(crate) fn new(capacity: usize) -> Pipe {
        Pipe {
            buf: VecDeque::new(),
            capacity,
            readers: 1,
            writers: 1,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Free space.
    pub fn room(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// Non-blocking write; returns bytes accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.room());
        self.buf.extend(&data[..n]);
        n
    }

    /// Non-blocking read; returns bytes read into `buf`.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.buf.len());
        let (front, back) = self.buf.as_slices();
        let k = n.min(front.len());
        buf[..k].copy_from_slice(&front[..k]);
        buf[k..n].copy_from_slice(&back[..n - k]);
        self.buf.drain(..n);
        n
    }
}

/// Table of live pipes.
#[derive(Debug, Default)]
pub struct PipeTable {
    /// Slot vector with `None` holes preserved (pipe ids are slot indices,
    /// so [`crate::snapshot`] must restore holes verbatim).
    pub(crate) pipes: Vec<Option<Pipe>>,
}

impl PipeTable {
    /// Empty table.
    pub fn new() -> PipeTable {
        PipeTable::default()
    }

    /// Create a pipe with the default capacity.
    pub fn create(&mut self) -> PipeId {
        self.create_with_capacity(PIPE_CAPACITY)
    }

    /// Create a pipe with a specific capacity (tests use tiny pipes to
    /// force blocking).
    pub fn create_with_capacity(&mut self, capacity: usize) -> PipeId {
        if let Some(idx) = self.pipes.iter().position(Option::is_none) {
            self.pipes[idx] = Some(Pipe::new(capacity));
            return PipeId(idx);
        }
        self.pipes.push(Some(Pipe::new(capacity)));
        PipeId(self.pipes.len() - 1)
    }

    /// Access a pipe.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id — fd bookkeeping keeps pipes alive, so a
    /// dangling id is a kernel bug.
    pub fn get_mut(&mut self, id: PipeId) -> &mut Pipe {
        self.pipes[id.0].as_mut().expect("dangling pipe id")
    }

    /// Shared access to a pipe.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id.
    pub fn get(&self, id: PipeId) -> &Pipe {
        self.pipes[id.0].as_ref().expect("dangling pipe id")
    }

    /// Drop a read endpoint; the pipe is destroyed when both counts are 0.
    pub fn drop_reader(&mut self, id: PipeId) {
        let p = self.get_mut(id);
        p.readers -= 1;
        self.maybe_destroy(id);
    }

    /// Drop a write endpoint.
    pub fn drop_writer(&mut self, id: PipeId) {
        let p = self.get_mut(id);
        p.writers -= 1;
        self.maybe_destroy(id);
    }

    /// Add a read endpoint (fd duplication / fork).
    pub fn add_reader(&mut self, id: PipeId) {
        self.get_mut(id).readers += 1;
    }

    /// Add a write endpoint.
    pub fn add_writer(&mut self, id: PipeId) {
        self.get_mut(id).writers += 1;
    }

    fn maybe_destroy(&mut self, id: PipeId) {
        let p = self.get(id);
        if p.readers == 0 && p.writers == 0 {
            self.pipes[id.0] = None;
        }
    }

    /// Number of live pipes.
    pub fn live(&self) -> usize {
        self.pipes.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ramfs_crud() {
        let mut fs = RamFs::new();
        assert!(!fs.exists("/etc/passwd"));
        fs.install("/etc/passwd", b"root:x:0:0".to_vec());
        assert_eq!(fs.file("/etc/passwd").unwrap(), b"root:x:0:0");
        fs.file_mut("/etc/passwd").extend_from_slice(b":::");
        assert!(fs.remove("/etc/passwd"));
        assert!(!fs.remove("/etc/passwd"));
    }

    #[test]
    fn read_at_clamps_to_eof() {
        let mut fs = RamFs::new();
        assert!(fs.read_at("/x", 0, 4).is_none());
        fs.install("/x", b"hello".to_vec());
        assert_eq!(fs.read_at("/x", 0, 3).unwrap(), b"hel");
        assert_eq!(fs.read_at("/x", 3, 99).unwrap(), b"lo");
        assert_eq!(fs.read_at("/x", 99, 4).unwrap(), b"");
    }

    #[test]
    fn write_at_grows_and_appends() {
        let mut fs = RamFs::new();
        assert_eq!(fs.write_at("/y", 2, b"ab", false), 4);
        assert_eq!(fs.file("/y").unwrap(), &vec![0, 0, b'a', b'b']);
        assert_eq!(fs.write_at("/y", 0, b"Z", false), 1);
        assert_eq!(fs.file("/y").unwrap(), &vec![b'Z', 0, b'a', b'b']);
        assert_eq!(fs.write_at("/y", 0, b"!", true), 5, "append ignores offset");
        assert_eq!(fs.file("/y").unwrap(), &vec![b'Z', 0, b'a', b'b', b'!']);
    }

    #[test]
    fn empty_write_past_eof_leaves_the_file_alone() {
        let mut fs = RamFs::new();
        fs.install("/z", b"abc".to_vec());
        assert_eq!(fs.write_at("/z", 1 << 20, b"", false), 1 << 20);
        assert_eq!(fs.file("/z").unwrap().len(), 3, "no zero-fill");
        assert_eq!(fs.write_at("/z", 1 << 20, b"", true), 3);
        assert_eq!(fs.file("/z").unwrap(), b"abc");
    }

    #[test]
    fn pipe_fifo_order() {
        let mut t = PipeTable::new();
        let id = t.create();
        assert_eq!(t.get_mut(id).write(b"abc"), 3);
        let mut buf = [0u8; 2];
        assert_eq!(t.get_mut(id).read(&mut buf), 2);
        assert_eq!(&buf, b"ab");
        let mut buf = [0u8; 8];
        assert_eq!(t.get_mut(id).read(&mut buf), 1);
        assert_eq!(buf[0], b'c');
    }

    #[test]
    fn pipe_read_across_the_ring_wrap() {
        let mut p = Pipe::new(0);
        p.buf = VecDeque::with_capacity(16);
        p.capacity = p.buf.capacity();
        let cap = p.capacity;
        // Fill the ring, drain all but three bytes, refill: the buffered
        // bytes now run from the ring's end round to its start.
        let first: Vec<u8> = (0..cap).map(|i| i as u8).collect();
        assert_eq!(p.write(&first), cap);
        let mut sink = vec![0u8; cap - 3];
        assert_eq!(p.read(&mut sink), cap - 3);
        assert_eq!(sink, first[..cap - 3]);
        let second: Vec<u8> = (0..cap - 3).map(|i| 0x80 | i as u8).collect();
        assert_eq!(p.write(&second), cap - 3);
        assert_eq!(p.buf.as_slices().0.len(), 3, "the contents wrap");
        // One read spans the wrap point; the next starts past it.
        let mut buf = [0u8; 5];
        assert_eq!(p.read(&mut buf), 5);
        assert_eq!(buf[..3], first[cap - 3..]);
        assert_eq!(buf[3..], second[..2]);
        let mut rest = vec![0u8; cap];
        assert_eq!(p.read(&mut rest), cap - 5);
        assert_eq!(rest[..cap - 5], second[2..]);
        assert!(p.is_empty());
    }

    proptest! {
        #[test]
        fn pipe_is_a_bounded_fifo(
            cap in 1..48usize,
            draws in proptest::collection::vec(any::<u64>(), 1..160),
        ) {
            let mut p = Pipe::new(cap);
            let mut model: Vec<u8> = Vec::new();
            let mut next = 0u8;
            for draw in draws {
                let n = (draw >> 1) as usize % (2 * cap + 1);
                if draw & 1 == 0 {
                    let data: Vec<u8> = (0..n)
                        .map(|_| {
                            next = next.wrapping_add(1);
                            next
                        })
                        .collect();
                    let took = p.write(&data);
                    prop_assert_eq!(took, n.min(cap - model.len()));
                    model.extend_from_slice(&data[..took]);
                } else {
                    let mut buf = vec![0xEE; n];
                    let got = p.read(&mut buf);
                    prop_assert_eq!(got, n.min(model.len()));
                    prop_assert_eq!(&buf[..got], &model[..got]);
                    prop_assert!(buf[got..].iter().all(|&b| b == 0xEE));
                    model.drain(..got);
                }
                prop_assert_eq!(p.len(), model.len());
                prop_assert_eq!(p.room(), cap - model.len());
            }
        }
    }

    #[test]
    fn pipe_capacity_limits_writes() {
        let mut t = PipeTable::new();
        let id = t.create_with_capacity(4);
        assert_eq!(t.get_mut(id).write(b"abcdef"), 4);
        assert_eq!(t.get_mut(id).room(), 0);
        let mut buf = [0u8; 2];
        t.get_mut(id).read(&mut buf);
        assert_eq!(t.get_mut(id).write(b"gh"), 2);
    }

    #[test]
    fn pipe_destroyed_when_both_ends_close() {
        let mut t = PipeTable::new();
        let id = t.create();
        assert_eq!(t.live(), 1);
        t.drop_reader(id);
        assert_eq!(t.live(), 1, "writer still holds it");
        t.drop_writer(id);
        assert_eq!(t.live(), 0);
        // Slot is recycled.
        let id2 = t.create();
        assert_eq!(id2, id);
    }

    #[test]
    fn endpoint_duplication() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.add_reader(id);
        t.drop_reader(id);
        t.drop_writer(id);
        assert_eq!(t.live(), 1, "duplicated reader keeps pipe alive");
        t.drop_reader(id);
        assert_eq!(t.live(), 0);
    }
}
