//! Real `tibpre-node` processes on loopback, and the `/proc` readings the
//! benchmark takes of them.

use std::fs::File;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// How one node set is launched.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    pub bin: PathBuf,
    pub level: &'static str,
    /// Data directory root for the store and proxy; `None` = in-memory.
    pub data_dir: Option<PathBuf>,
    /// Where node logs go.
    pub log_dir: PathBuf,
}

pub struct Node {
    role: &'static str,
    child: Child,
    pub addr: String,
}

impl Node {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn spawn(spec: &NodeSpec, role: &'static str, store: Option<&str>) -> io::Result<Self> {
        let log = spec.log_dir.join(format!("{role}.log"));
        let mut cmd = Command::new(&spec.bin);
        cmd.args([
            "--role",
            role,
            "--level",
            spec.level,
            "--addr",
            "127.0.0.1:0",
        ]);
        if let (Some(dir), true) = (&spec.data_dir, role != "kgc") {
            cmd.arg("--data-dir").arg(dir.join(role));
            cmd.env("TIBPRE_FSYNC", crate::spec::NODE_FSYNC);
        }
        if let Some(store) = store {
            cmd.args(["--store", store]);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&log)?)
            .spawn()?;
        let mut node = Node {
            role,
            child,
            addr: String::new(),
        };
        node.addr = node.await_addr(&log)?;
        Ok(node)
    }

    /// Polls the node's log for its "listening on <addr>" line.
    fn await_addr(&mut self, log: &Path) -> io::Result<String> {
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only a finished line: the node may be mid-write.
            if let Some((line, _)) = text
                .split("listening on ")
                .nth(1)
                .and_then(|r| r.split_once('\n'))
            {
                if let Some(addr) = line.split_whitespace().next() {
                    return Ok(addr.to_string());
                }
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "{} node exited during boot ({status}): {text}",
                    self.role
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(ErrorKind::TimedOut, "node boot timed out"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `kill -9` and reap.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A kgc + store + proxy node set.
pub struct NodeSet {
    spec: NodeSpec,
    pub kgc: Node,
    pub store: Node,
    pub proxy: Node,
}

impl NodeSet {
    pub fn spawn(spec: NodeSpec) -> io::Result<Self> {
        std::fs::create_dir_all(&spec.log_dir)?;
        let kgc = Node::spawn(&spec, "kgc", None)?;
        let store = Node::spawn(&spec, "store", None)?;
        let proxy = Node::spawn(&spec, "proxy", Some(&store.addr))?;
        Ok(NodeSet {
            spec,
            kgc,
            store,
            proxy,
        })
    }

    /// `kill -9` of the store and proxy, then a restart from their data
    /// directories; returns once both have bound their listeners.
    pub fn crash_and_restart(&mut self) -> io::Result<()> {
        self.proxy.kill();
        self.store.kill();
        self.store = Node::spawn(&self.spec, "store", None)?;
        self.proxy = Node::spawn(&self.spec, "proxy", Some(&self.store.addr))?;
        Ok(())
    }

    /// Bytes under the store's and proxy's data directories.
    pub fn data_bytes(&self) -> u64 {
        self.spec.data_dir.as_deref().map_or(0, dir_bytes)
    }
}

impl Drop for NodeSet {
    fn drop(&mut self) {
        self.proxy.kill();
        self.store.kill();
        self.kgc.kill();
    }
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `/proc` readings.  Linux reports CPU time in clock ticks of 1/100 s.
pub mod procfs {
    const TICKS_PER_S: f64 = 100.0;

    /// User + system CPU seconds of a process.
    pub fn cpu_s(pid: u32) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
            return 0.0;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
    }

    fn field(path: &str, key: &str) -> u64 {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    }

    /// `write`-family syscalls made so far.
    pub fn write_syscalls(pid: u32) -> u64 {
        field(&format!("/proc/{pid}/io"), "syscw:")
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(pid: u32) -> f64 {
        field(&format!("/proc/{pid}/status"), "VmHWM:") as f64 / 1024.0
    }

    /// `(steal, total)` jiffies over all CPUs since boot.
    pub fn steal_total() -> (u64, u64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let values: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        (values.get(7).copied().unwrap_or(0), values.iter().sum())
    }
}
