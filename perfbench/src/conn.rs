//! A framed connection that hands back raw response payloads.
//!
//! The generator compares repeated disclosures by hash, so it must see the
//! response bytes before (and usually instead of) decoding them; decoding
//! every bundle would put about a millisecond of client CPU per response
//! into the timed window.  Requests are encoded with `tibpre-client`'s
//! protocol types and framed with `tibpre-wire`, exactly as
//! `tibpre_client::Connection` does.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tibpre_client::Request;
use tibpre_wire::framing::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use tibpre_wire::WireEncode;

/// Longest a single response may take before the run is declared broken.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

pub struct RawConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RawConn {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(RawConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Writes one request frame and pushes it to the socket.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.send_bytes(&request.to_wire_bytes())
    }

    /// [`Self::send`] for a request encoded ahead of time.
    pub fn send_bytes(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.writer, payload, DEFAULT_MAX_FRAME)
            .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        self.writer.flush()
    }

    /// Blocks for the next response payload.
    pub fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        match read_frame(&mut self.reader, DEFAULT_MAX_FRAME) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err(ErrorKind::UnexpectedEof.into()),
            Err(e) => Err(std::io::Error::other(format!("{e:?}"))),
        }
    }

    /// Waits until a response has started to arrive or `until` passes;
    /// `true` when a payload can be read.  Nothing is consumed, so a
    /// timeout leaves the stream intact.  The wait spins, yielding the CPU
    /// to any runnable thread, instead of blocking: see [`spin_until`].
    pub fn wait_readable(&mut self, until: Instant) -> std::io::Result<bool> {
        if !self.reader.buffer().is_empty() {
            return Ok(true);
        }
        let cpu = thread_cpu_ns();
        self.reader.get_ref().set_nonblocking(true)?;
        let ready = loop {
            match self.reader.fill_buf() {
                Ok([]) => break Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => break Ok(true),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= until {
                        break Ok(false);
                    }
                    std::thread::yield_now();
                }
                Err(e) => break Err(e),
            }
        };
        self.reader.get_ref().set_nonblocking(false)?;
        SPIN_CPU_NS.fetch_add(thread_cpu_ns() - cpu, Ordering::Relaxed);
        ready
    }

    pub fn call(&mut self, request: &Request) -> std::io::Result<Vec<u8>> {
        self.send(request)?;
        self.recv()
    }
}

/// CPU time the generator's threads spent spinning in [`spin_until`] and
/// [`RawConn::wait_readable`]; `loadgen.cpu_ms_per_op` leaves it out.
pub static SPIN_CPU_NS: AtomicU64 = AtomicU64::new(0);

/// Spins until `at`, yielding the CPU to any runnable thread.
///
/// The open loop keeps both vCPUs busy this way rather than letting them
/// halt between requests.  On a shared VM a halted vCPU that is woken
/// waits for the host to schedule it again, and the host counts that wait
/// as steal.  In eight interleaved pairs of ingest runs on a 2-vCPU VM the
/// median disclosure read 2.19-2.46 ms spinning against 2.80-5.71 ms
/// sleeping, at host steal 0.000-0.017 against 0.016-0.141.  A node thread
/// woken on a spinning vCPU runs at the spinner's next yield.
pub fn spin_until(at: Instant) {
    let cpu = thread_cpu_ns();
    while Instant::now() < at {
        std::thread::yield_now();
    }
    SPIN_CPU_NS.fetch_add(thread_cpu_ns() - cpu, Ordering::Relaxed);
}

/// CPU time of the calling thread in nanoseconds (`CLOCK_THREAD_CPUTIME_ID`).
pub(crate) fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}
