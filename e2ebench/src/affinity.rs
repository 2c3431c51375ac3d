//! Confining the whole process to one core for the wire phases.
//!
//! Spread over two cores, one wire request wakes a thread on the other
//! core several times (client → connection thread → batcher worker →
//! connection thread → client). On a virtual machine each such wake of
//! an idle core waits for the host to schedule that virtual CPU, so on
//! a shared host the wire figures followed the host's load far more
//! than the compute phases did. On one core every hand-off is a local
//! context switch, and a request's latency is the CPU work of its path.
//! See the README.
//!
//! [`confine`] sets the affinity of every thread of the process; a
//! thread started later inherits its creator's. Dropping the returned
//! guard gives every thread the process's earlier mask back.

/// Size of the affinity masks, in bytes (1024 CPUs).
const MASK_BYTES: usize = 128;

type Mask = [u8; MASK_BYTES];

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
}

/// The calling thread's affinity mask.
#[cfg(target_os = "linux")]
fn current() -> Option<Mask> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: the kernel writes at most `MASK_BYTES` bytes into `mask`.
    let rc = unsafe { sys::sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Set `mask` on every thread of the process; false if any failed,
/// other than a thread that ended after it was listed.
#[cfg(target_os = "linux")]
fn set_all(mask: &Mask) -> bool {
    const ESRCH: i32 = 3;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut ok = true;
    for tid in tasks
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<i32>().ok())
    {
        // SAFETY: the kernel reads `MASK_BYTES` bytes from `mask`.
        let rc = unsafe { sys::sched_setaffinity(tid, MASK_BYTES, mask.as_ptr()) };
        ok &= rc == 0 || std::io::Error::last_os_error().raw_os_error() == Some(ESRCH);
    }
    ok
}

#[cfg(not(target_os = "linux"))]
fn current() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_all(_: &Mask) -> bool {
    false
}

/// Restores the process's mask when dropped.
pub struct Confined {
    before: Mask,
    /// The core the process was confined to.
    pub cpu: usize,
}

impl Drop for Confined {
    fn drop(&mut self) {
        set_all(&self.before);
    }
}

/// Confine every thread of the process to the lowest-numbered core it
/// may run on. `None` where that cannot be done.
pub fn confine() -> Option<Confined> {
    let before = current()?;
    let cpu = (0..MASK_BYTES * 8).find(|&c| before[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; MASK_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    let guard = Confined { before, cpu };
    // On a partial failure the guard still restores every thread.
    set_all(&one).then_some(guard)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn confine_reaches_running_threads_and_restores() {
        let before = current().expect("affinity readable");
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (back, seen) = std::sync::mpsc::channel::<Mask>();
        let worker = std::thread::spawn(move || {
            // Report the mask each time the test asks.
            while rx.recv().is_ok() {
                back.send(current().expect("affinity readable")).unwrap();
            }
        });
        let guard = confine().expect("confine");
        let mut one = [0u8; MASK_BYTES];
        one[guard.cpu / 8] = 1 << (guard.cpu % 8);
        assert_eq!(current().unwrap(), one);
        tx.send(()).unwrap();
        assert_eq!(seen.recv().unwrap(), one, "a thread started earlier");
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        drop(guard);
        assert_eq!(current().unwrap(), before);
        tx.send(()).unwrap();
        assert_eq!(seen.recv().unwrap(), before);
        drop(tx);
        worker.join().unwrap();
    }
}
