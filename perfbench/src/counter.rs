//! Instructions retired, from the CPU's hardware counter
//! (`perf_event_open(2)`), counted in user space for this process and
//! every thread it starts after [`init`].
//!
//! Why instructions and not time: on a shared host, wall time (and CPU
//! time, and cycles) of the same work moves by up to 1.4x for minutes
//! at a time as neighbours compete for the core's caches, while the
//! instruction count of the same work repeats to within 0.01%. The
//! workloads still print their times, and the traced run reports
//! per-layer times.

use std::ffi::c_long;
use std::fs::File;
use std::io::Read;
use std::os::fd::FromRawFd;
use std::sync::OnceLock;

static COUNTER: OnceLock<File> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: c_long = 298;
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: c_long = 241;

const PERF_TYPE_HARDWARE: u64 = 0;
const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
/// `read_format`: also report the times the counter was enabled and
/// running, so a multiplexed count can be scaled.
const TOTAL_TIME_ENABLED_RUNNING: u64 = 0b11;
/// `perf_event_attr` flag bits: `inherit`, `exclude_kernel`,
/// `exclude_hv`.
const FLAGS: u64 = (1 << 1) | (1 << 5) | (1 << 6);

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
}

/// Opens the counter. Call it before any thread is started: threads
/// started earlier are not counted.
pub fn init() -> Result<(), String> {
    // `struct perf_event_attr` as 16 little-endian words (128 bytes,
    // PERF_ATTR_SIZE_VER7): type and size, config, sample period,
    // sample type, read format, flags; the rest zero.
    let mut attr = [0u64; 16];
    attr[0] = PERF_TYPE_HARDWARE | ((std::mem::size_of_val(&attr) as u64) << 32);
    attr[1] = PERF_COUNT_HW_INSTRUCTIONS;
    attr[4] = TOTAL_TIME_ENABLED_RUNNING;
    attr[5] = FLAGS;
    // SAFETY: `attr` outlives the call and is the size it declares;
    // pid 0 and cpu -1 count this process on any CPU, no group, no
    // flags.
    let fd = unsafe {
        syscall(
            SYS_PERF_EVENT_OPEN,
            attr.as_ptr(),
            0 as c_long,
            -1 as c_long,
            -1 as c_long,
            0 as c_long,
        )
    };
    if fd < 0 {
        return Err(format!(
            "the hardware instruction counter is not available \
             (perf_event_open: {}); the benchmark needs it",
            std::io::Error::last_os_error()
        ));
    }
    // SAFETY: `fd` is a fresh descriptor that nothing else owns.
    let file = unsafe { File::from_raw_fd(fd as i32) };
    COUNTER
        .set(file)
        .map_err(|_| "the counter was opened twice".to_owned())?;
    let start = read()?;
    std::hint::black_box((0..1000u64).sum::<u64>());
    if read()? <= start {
        return Err("the hardware instruction counter counts nothing".into());
    }
    Ok(())
}

/// Instructions retired so far by this process and its threads, scaled
/// up if the kernel had to share the counter.
fn read() -> Result<f64, String> {
    let mut file = COUNTER.get().ok_or("the counter is not open")?;
    let mut buf = [0u8; 24];
    file.read_exact(&mut buf)
        .map_err(|e| format!("reading the instruction counter: {e}"))?;
    let word = |i: usize| u64::from_ne_bytes(buf[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let (value, enabled, running) = (word(0), word(1), word(2));
    Ok(value as f64 * enabled as f64 / running.max(1) as f64)
}

/// A reading of the counter (see [`init`]).
pub fn now() -> f64 {
    read().expect("the counter was readable at start-up")
}

/// Millions of instructions retired since `since`, a reading of [`now`].
pub fn minstr_since(since: f64) -> f64 {
    (now() - since) / 1e6
}

/// Wall time and instructions of one measured call.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Wall time, ms.
    pub ms: f64,
    /// Instructions retired, millions.
    pub minstr: f64,
}

/// Runs `f` and measures it.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let instr = now();
    let t = std::time::Instant::now();
    let value = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cost = Cost {
        ms,
        minstr: minstr_since(instr),
    };
    (value, cost)
}
