//! Keeping the generator and the server's reactor on different cores.
//!
//! A closed-loop client and the `csaw-dbserver` reactor behave in two
//! ways on loopback. On *different* cores — the deployment's case, where
//! they are different machines — the reactor finishes its pass and parks
//! (`idle_park`) before the client's next request can arrive, so every
//! round trip pays the park: ~220 µs. On the *same* core the woken
//! client pre-empts the reactor, sends, blocks, and the reactor finds
//! the request on its very next pass: ~50 µs, no park ever. Which of
//! the two a run gets is the kernel scheduler's wake-affinity choice; it
//! sticks for a whole run and flips between runs of identical code, a
//! 4× swing. Pinning the two threads apart picks the deployment's case
//! every time.
//!
//! The workspace has no `libc`, so the one system call is made by hand;
//! where that is not possible (another OS or architecture, one core)
//! nothing is pinned and the run says so.

/// CPUs this process was started on. Read once: the same file shows
/// only the pinned CPU once the calling thread has pinned itself.
fn allowed_cpus() -> Vec<usize> {
    static AT_START: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    AT_START.get_or_init(read_allowed_cpus).clone()
}

/// `Cpus_allowed_list` of the calling thread, from `/proc/thread-self/status`.
fn read_allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.splitn(2, '-').map(|s| s.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(lo)), None) => cpus.push(lo),
            (Some(Ok(lo)), Some(Ok(hi))) if lo <= hi && hi - lo < 4096 => cpus.extend(lo..=hi),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Thread ids of this process's threads named `name`.
fn threads_named(name: &str) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm")).is_ok_and(|comm| comm.trim() == name)
        })
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect()
}

/// `sched_setaffinity(tid, {cpus})`; `tid` 0 is the calling thread.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
fn set_affinity(tid: u32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        match mask.get_mut(cpu / 64) {
            Some(word) => *word |= 1 << (cpu % 64),
            None => return false,
        }
    }
    let ret: isize;
    // SAFETY: sched_setaffinity(2) (x86-64 system call 203) reads
    // `size_of_val(&mask)` bytes at `mask`, which outlives the call, and
    // writes no memory of ours. The `syscall` instruction clobbers only
    // rax, rcx and r11, all declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") tid as usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_tid: u32, _cpus: &[usize]) -> bool {
    false
}

/// Pin the calling (generator) thread to the first allowed CPU and every
/// thread named `server_thread` to the second. Returns whether both
/// took; `false` (one core, or no way to ask) leaves everything as it
/// was.
pub fn split_from(server_thread: &str) -> bool {
    let cpus = allowed_cpus();
    let (Some(&mine), Some(&theirs)) = (cpus.first(), cpus.get(1)) else {
        return false;
    };
    // A thread names itself once it runs, which may be a moment after
    // `spawn` returned to us.
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
    let mut servers = threads_named(server_thread);
    while servers.is_empty() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
        servers = threads_named(server_thread);
    }
    if servers.is_empty() || !servers.iter().all(|&tid| set_affinity(tid, &[theirs])) {
        return false;
    }
    set_affinity(0, &[mine])
}

/// Let the calling thread run anywhere it is allowed to again (threads
/// it spawns later inherit its mask).
pub fn release() {
    let cpus = allowed_cpus();
    if !cpus.is_empty() {
        set_affinity(0, &cpus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_cpus_parses_this_host() {
        let cpus = allowed_cpus();
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            cpus.len(),
            n,
            "Cpus_allowed_list disagrees with available_parallelism"
        );
    }

    #[test]
    fn a_named_thread_is_found_and_pinned_then_released() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("bench-pin-test".into())
            .spawn(move || {
                let _ = rx.recv();
            })
            .unwrap();
        let can_pin =
            allowed_cpus().len() >= 2 && cfg!(all(target_os = "linux", target_arch = "x86_64"));
        // `split_from` waits for the thread to have named itself.
        assert_eq!(split_from("bench-pin-test"), can_pin);
        assert_eq!(threads_named("bench-pin-test").len(), 1);
        if can_pin {
            assert_eq!(
                read_allowed_cpus().len(),
                1,
                "the caller is pinned to one CPU"
            );
            release();
            assert_eq!(read_allowed_cpus(), allowed_cpus(), "and free again");
        }
        assert!(!split_from("no-such-thread"));
        drop(tx);
        handle.join().unwrap();
    }
}
