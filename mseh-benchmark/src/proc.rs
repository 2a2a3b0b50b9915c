//! Child processes: locating the binaries, waiting with a deadline, and
//! the peak memory of everything the benchmark started.

use std::io;
use std::path::PathBuf;
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

/// A binary built next to this one (`mseh`, or this benchmark itself).
pub fn sibling_binary(name: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} not found; build it first", path.display()),
        ))
    }
}

/// Waits for `child` to exit, killing it after `limit`. Returns its
/// status, or an error if it had to be killed.
pub fn wait_with_deadline(child: &mut Child, limit: Duration) -> io::Result<ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "child did not exit in time and was killed",
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Largest resident set of any child process waited for so far, in MB
/// (the kernel's `ru_maxrss` for `RUSAGE_CHILDREN`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    #[allow(dead_code)] // layout only: the kernel writes these fields
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// Linux `struct rusage`: two timevals, then fourteen longs of which
    /// `ru_maxrss` (kilobytes) is the first.
    #[repr(C)]
    #[allow(dead_code)] // layout only: the kernel writes these fields
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_CHILDREN: c_int = -1;

    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux (the cfg above), and getrusage
    // writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Not measured on other platforms: the metric reads as missing.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> f64 {
    f64::NAN
}
