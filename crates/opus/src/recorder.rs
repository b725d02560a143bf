//! The OPUS libc-interposition state machine (Provenance Versioning Model).

use std::collections::BTreeMap;

use oskernel::{EventLog, LibcCall, Pid};
use provgraph::PropertyGraph;

use crate::neo4jsim::Neo4jStore;
use crate::OpusConfig;

/// The simulated OPUS recorder.
///
/// Feed it a kernel [`EventLog`]; it consumes the libc layer and produces a
/// PVM graph: `Process` nodes, per-call `Event` nodes, `Local` descriptor
/// resources, and versioned file identities (`Version` → `Global`).
#[derive(Debug, Clone, Default)]
pub struct OpusRecorder {
    /// Recorder configuration.
    pub config: OpusConfig,
}

impl OpusRecorder {
    /// Create a recorder with the given configuration.
    pub fn new(config: OpusConfig) -> Self {
        OpusRecorder { config }
    }

    /// Create a recorder with the baseline configuration.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// `true` when OPUS's interposition library wraps `func`.
    ///
    /// Calls outside the wrapper set are invisible (Table 2, note NR):
    /// `mknodat`, `setres[ug]id`, `fchmod`, `fchown`, `tee`, `kill` — and
    /// raw `clone` never even reaches libc.
    pub fn is_wrapped(&self, func: &str) -> bool {
        !matches!(
            func,
            "mknodat" | "setresuid" | "setresgid" | "fchmod" | "fchown" | "tee" | "kill" | "exit"
        )
    }

    /// Consume the libc stream into an in-memory PVM graph.
    pub fn record_graph(&self, log: &EventLog) -> PropertyGraph {
        let mut b = Builder::new(&self.config);
        for call in log.libc_calls() {
            if self.is_wrapped(&call.func) {
                b.handle(call);
            }
        }
        b.graph
    }

    /// Consume the libc stream and persist the graph into a Neo4j-style
    /// store (OPUS's normal operation; ProvMark later queries it back).
    ///
    /// # Errors
    ///
    /// Propagates store serialization errors.
    pub fn record_to_store(&self, log: &EventLog, store: &mut Neo4jStore) -> std::io::Result<()> {
        store.ingest(&self.record_graph(log))
    }
}

struct Builder<'a> {
    config: &'a OpusConfig,
    graph: PropertyGraph,
    /// pid → current process node id.
    proc_node: BTreeMap<Pid, String>,
    /// pid → environment (inherited on fork, replaced on exec).
    pid_env: BTreeMap<Pid, BTreeMap<String, String>>,
    /// (pid, fd) → local resource node id.
    fd_local: BTreeMap<(Pid, i32), String>,
    /// local node id → version node id it is bound to.
    local_version: BTreeMap<String, String>,
    /// path → global node id.
    globals: BTreeMap<String, String>,
    /// path → current version node id.
    versions: BTreeMap<String, String>,
    counters: BTreeMap<&'static str, u32>,
}

impl<'a> Builder<'a> {
    fn new(config: &'a OpusConfig) -> Self {
        Builder {
            config,
            graph: PropertyGraph::new(),
            proc_node: BTreeMap::new(),
            pid_env: BTreeMap::new(),
            fd_local: BTreeMap::new(),
            local_version: BTreeMap::new(),
            globals: BTreeMap::new(),
            versions: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn fresh(&mut self, prefix: &'static str) -> String {
        let c = self.counters.entry(prefix).or_insert(0);
        *c += 1;
        format!("{prefix}{c}")
    }

    fn edge(&mut self, src: &str, tgt: &str, label: &str, time: u64) {
        let id = self.fresh("e");
        self.graph
            .add_edge(id.clone(), src, tgt, label)
            .expect("endpoints exist");
        self.graph
            .set_edge_property(&id, "time", time.to_string())
            .expect("edge exists");
    }

    fn ensure_process(&mut self, call: &LibcCall) -> String {
        if let Some(id) = self.proc_node.get(&call.pid) {
            return id.clone();
        }
        let id = format!("proc{}", call.pid);
        self.graph
            .add_node(id.clone(), "Process")
            .expect("fresh process");
        self.graph
            .set_node_property(&id, "pid", call.pid.to_string())
            .expect("exists");
        self.graph
            .set_node_property(&id, "firstSeen", call.time.to_string()) // volatile
            .expect("exists");
        if let Some(env) = self.pid_env.get(&call.pid).cloned() {
            for (k, v) in env {
                self.graph
                    .set_node_property(&id, format!("env:{k}"), v)
                    .expect("exists");
            }
        }
        self.proc_node.insert(call.pid, id.clone());
        id
    }

    /// Event node for the call, linked to the acting process.
    fn event(&mut self, call: &LibcCall) -> String {
        let proc_id = self.ensure_process(call);
        let id = self.fresh("ev");
        self.graph
            .add_node(id.clone(), "Event")
            .expect("fresh event");
        self.graph
            .set_node_property(&id, "function", call.func.clone())
            .expect("exists");
        self.graph
            .set_node_property(&id, "ret", call.ret.to_string())
            .expect("exists");
        if let Some(e) = call.errno {
            self.graph
                .set_node_property(&id, "errno", e.name())
                .expect("exists");
        }
        self.graph
            .set_node_property(&id, "seq", call.seq.to_string()) // volatile
            .expect("exists");
        self.edge(&proc_id, &id, "EXECUTED", call.time);
        id
    }

    fn ensure_global(&mut self, path: &str) -> String {
        if let Some(id) = self.globals.get(path) {
            return id.clone();
        }
        let id = self.fresh("glob");
        self.graph
            .add_node(id.clone(), "Global")
            .expect("fresh global");
        self.graph
            .set_node_property(&id, "path", path)
            .expect("exists");
        self.globals.insert(path.to_owned(), id.clone());
        id
    }

    /// Current version node for `path`, creating version 1 if absent.
    fn ensure_version(&mut self, path: &str, time: u64) -> String {
        if let Some(id) = self.versions.get(path) {
            return id.clone();
        }
        let glob = self.ensure_global(path);
        let id = self.fresh("ver");
        self.graph
            .add_node(id.clone(), "Version")
            .expect("fresh version");
        self.edge(&id, &glob, "VERSION_OF", time);
        self.versions.insert(path.to_owned(), id.clone());
        id
    }

    /// New version derived from the current one (PVM versioning step).
    fn new_version(&mut self, path: &str, time: u64) -> String {
        let old = self.ensure_version(path, time);
        let glob = self.ensure_global(path);
        let id = self.fresh("ver");
        self.graph
            .add_node(id.clone(), "Version")
            .expect("fresh version");
        self.edge(&id, &glob, "VERSION_OF", time);
        self.edge(&id, &old, "DERIVED_FROM", time);
        self.versions.insert(path.to_owned(), id.clone());
        id
    }

    fn new_local(&mut self, call: &LibcCall, fd: i32) -> String {
        let proc_id = self.ensure_process(call);
        let id = self.fresh("loc");
        self.graph
            .add_node(id.clone(), "Local")
            .expect("fresh local");
        self.graph
            .set_node_property(&id, "fd", fd.to_string())
            .expect("exists");
        self.edge(&proc_id, &id, "OWNS", call.time);
        self.fd_local.insert((call.pid, fd), id.clone());
        id
    }

    fn handle(&mut self, call: &LibcCall) {
        match call.func.as_str() {
            "open" | "openat" | "creat" => self.handle_open(call),
            "close" => self.handle_close(call),
            "dup" | "dup2" | "dup3" => self.handle_dup(call),
            "read" | "pread" | "write" | "pwrite" => self.handle_io(call),
            "link" | "linkat" | "symlink" | "symlinkat" => self.handle_link(call),
            "mknod" => self.handle_mknod(call),
            "rename" | "renameat" => self.handle_rename(call),
            "truncate" => self.handle_truncate_path(call),
            "ftruncate" => self.handle_ftruncate(call),
            "unlink" | "unlinkat" => self.handle_unlink(call),
            "chmod" | "fchmodat" | "chown" | "fchownat" => self.handle_attr(call),
            "setuid" | "setreuid" | "setgid" | "setregid" => {
                let _ = self.event(call);
            }
            "fork" | "vfork" => self.handle_fork(call),
            "execve" => self.handle_exec(call),
            "pipe" | "pipe2" => self.handle_pipe(call),
            _ => {}
        }
    }

    /// open: four new nodes — event, local, and "two nodes corresponding
    /// to the file" (version + global), paper §4.1.
    fn handle_open(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let Some(path) = call.args.first().cloned() else {
            return;
        };
        if call.ret >= 0 {
            let fd = call.ret as i32;
            let local = self.new_local(call, fd);
            self.edge(&ev, &local, "RESULT", call.time);
            let ver = self.ensure_version(&path, call.time);
            self.edge(&local, &ver, "BOUND_TO", call.time);
            self.local_version.insert(local, ver);
        } else {
            // Failed calls still leave structure (paper §3.1, Alice).
            let glob = self.ensure_global(&path);
            self.edge(&ev, &glob, "FAILED_ON", call.time);
        }
    }

    fn handle_close(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let Some(fd) = call.args.first().and_then(|a| a.parse::<i32>().ok()) else {
            return;
        };
        if let Some(local) = self.fd_local.remove(&(call.pid, fd)) {
            self.edge(&ev, &local, "CLOSES", call.time);
        }
    }

    /// dup: the call event and the new resource are two nodes "not directly
    /// connected to each other, but connected to the same process node"
    /// (paper §4.1).
    fn handle_dup(&mut self, call: &LibcCall) {
        let _ev = self.event(call);
        if call.ret >= 0 {
            let new_fd = call.ret as i32;
            let local = self.new_local(call, new_fd);
            // Share the version binding of the duplicated descriptor.
            if let Some(old_fd) = call.args.first().and_then(|a| a.parse::<i32>().ok()) {
                if let Some(old_local) = self.fd_local.get(&(call.pid, old_fd)).cloned() {
                    if let Some(ver) = self.local_version.get(&old_local).cloned() {
                        self.local_version.insert(local, ver);
                    }
                }
            }
        }
    }

    fn handle_io(&mut self, call: &LibcCall) {
        if !self.config.record_io {
            return; // default configuration: no read/write records (NR)
        }
        let ev = self.event(call);
        if let Some(fd) = call.args.first().and_then(|a| a.parse::<i32>().ok()) {
            if let Some(local) = self.fd_local.get(&(call.pid, fd)).cloned() {
                self.edge(&ev, &local, "TOUCHES", call.time);
            }
        }
    }

    fn handle_link(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let (Some(old), Some(new)) = (call.args.first().cloned(), call.args.get(1).cloned()) else {
            return;
        };
        let old_ver = self.ensure_version(&old, call.time);
        let glob_new = self.ensure_global(&new);
        let new_ver = self.fresh("ver");
        self.graph
            .add_node(new_ver.clone(), "Version")
            .expect("fresh version");
        self.edge(&new_ver, &glob_new, "VERSION_OF", call.time);
        self.edge(&new_ver, &old_ver, "DERIVED_FROM", call.time);
        self.edge(&ev, &new_ver, "CREATES", call.time);
        self.versions.insert(new, new_ver);
    }

    fn handle_mknod(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let Some(path) = call.args.first().cloned() else {
            return;
        };
        if call.ret == 0 {
            let ver = self.ensure_version(&path, call.time);
            self.edge(&ev, &ver, "CREATES", call.time);
        } else {
            let glob = self.ensure_global(&path);
            self.edge(&ev, &glob, "FAILED_ON", call.time);
        }
    }

    /// rename: same structure whether it succeeded or failed; the return
    /// value property distinguishes them (paper §3.1).
    fn handle_rename(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let (Some(old), Some(new)) = (call.args.first().cloned(), call.args.get(1).cloned()) else {
            return;
        };
        let old_ver = self.ensure_version(&old, call.time);
        let glob_new = self.ensure_global(&new);
        let new_ver = self.fresh("ver");
        self.graph
            .add_node(new_ver.clone(), "Version")
            .expect("fresh version");
        self.edge(&new_ver, &glob_new, "VERSION_OF", call.time);
        self.edge(&new_ver, &old_ver, "DERIVED_FROM", call.time);
        self.edge(&ev, &old_ver, "READS", call.time);
        self.edge(&ev, &new_ver, "CREATES", call.time);
        if call.ret == 0 {
            self.versions.insert(new, new_ver);
            self.versions.remove(&old);
        }
    }

    fn handle_truncate_path(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let Some(path) = call.args.first().cloned() else {
            return;
        };
        if call.ret == 0 {
            let ver = self.new_version(&path, call.time);
            self.edge(&ev, &ver, "TRUNCATES", call.time);
        } else {
            let glob = self.ensure_global(&path);
            self.edge(&ev, &glob, "FAILED_ON", call.time);
        }
    }

    fn handle_ftruncate(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let Some(fd) = call.args.first().and_then(|a| a.parse::<i32>().ok()) else {
            return;
        };
        if let Some(local) = self.fd_local.get(&(call.pid, fd)).cloned() {
            if let Some(old_ver) = self.local_version.get(&local).cloned() {
                let new_ver = self.fresh("ver");
                self.graph
                    .add_node(new_ver.clone(), "Version")
                    .expect("fresh version");
                self.edge(&new_ver, &old_ver, "DERIVED_FROM", call.time);
                self.edge(&ev, &new_ver, "TRUNCATES", call.time);
                self.local_version.insert(local, new_ver);
            }
        }
    }

    fn handle_unlink(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let Some(path) = call.args.first().cloned() else {
            return;
        };
        let ver = self.ensure_version(&path, call.time);
        self.edge(&ev, &ver, "DELETES", call.time);
        if call.ret == 0 {
            self.versions.remove(&path);
        }
    }

    fn handle_attr(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let Some(path) = call.args.first().cloned() else {
            return;
        };
        if call.ret == 0 {
            let ver = self.new_version(&path, call.time);
            self.edge(&ev, &ver, "SETS_ATTR", call.time);
        } else {
            let glob = self.ensure_global(&path);
            self.edge(&ev, &glob, "FAILED_ON", call.time);
        }
    }

    /// fork/vfork graphs are comparatively large for OPUS (paper §4.2):
    /// the child's process node, its environment node, and duplicated
    /// descriptor resources all appear.
    fn handle_fork(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        if call.ret < 0 {
            return;
        }
        let child = call.ret as Pid;
        // Child inherits the parent's environment.
        let parent_env = self.pid_env.get(&call.pid).cloned().unwrap_or_default();
        self.pid_env.insert(child, parent_env.clone());
        let child_id = format!("proc{child}");
        if !self.graph.has_node(&child_id) {
            self.graph
                .add_node(child_id.clone(), "Process")
                .expect("fresh child");
            self.graph
                .set_node_property(&child_id, "pid", child.to_string())
                .expect("exists");
            self.graph
                .set_node_property(&child_id, "firstSeen", call.time.to_string())
                .expect("exists");
            for (k, v) in &parent_env {
                self.graph
                    .set_node_property(&child_id, format!("env:{k}"), v.clone())
                    .expect("exists");
            }
            self.proc_node.insert(child, child_id.clone());
        }
        self.edge(&ev, &child_id, "FORKS", call.time);
        // Environment node (OPUS records environments, §5.1).
        let env_node = self.fresh("env");
        self.graph
            .add_node(env_node.clone(), "Env")
            .expect("fresh env node");
        for (k, v) in &parent_env {
            self.graph
                .set_node_property(&env_node, k.clone(), v.clone())
                .expect("exists");
        }
        self.edge(&child_id, &env_node, "HAS_ENV", call.time);
        // Duplicate descriptor resources for the child.
        let inherited: Vec<((Pid, i32), String)> = self
            .fd_local
            .iter()
            .filter(|((p, _), _)| *p == call.pid)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        for ((_, fd), parent_local) in inherited {
            let mut child_call = call.clone();
            child_call.pid = child;
            let local = self.new_local(&child_call, fd);
            if let Some(ver) = self.local_version.get(&parent_local).cloned() {
                self.local_version.insert(local, ver);
            }
        }
    }

    /// execve: "just a few nodes" (paper §4.2) — the event and the new
    /// process incarnation carrying the recorded environment.
    fn handle_exec(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        let old_proc = self.ensure_process(call);
        if call.ret != 0 {
            return;
        }
        if let Some(env) = &call.env {
            self.pid_env.insert(call.pid, env.clone());
        }
        let new_id = self.fresh("procx");
        self.graph
            .add_node(new_id.clone(), "Process")
            .expect("fresh incarnation");
        self.graph
            .set_node_property(&new_id, "pid", call.pid.to_string())
            .expect("exists");
        if let Some(path) = call.args.first() {
            self.graph
                .set_node_property(&new_id, "binary", path.clone())
                .expect("exists");
        }
        self.graph
            .set_node_property(&new_id, "firstSeen", call.time.to_string())
            .expect("exists");
        for (k, v) in self.pid_env.get(&call.pid).cloned().unwrap_or_default() {
            self.graph
                .set_node_property(&new_id, format!("env:{k}"), v)
                .expect("exists");
        }
        self.edge(&new_id, &old_proc, "EXEC", call.time);
        self.edge(&ev, &new_id, "CREATES", call.time);
        self.proc_node.insert(call.pid, new_id);
    }

    fn handle_pipe(&mut self, call: &LibcCall) {
        let ev = self.event(call);
        if call.ret != 0 {
            return;
        }
        let (Some(rfd), Some(wfd)) = (
            call.args.first().and_then(|a| a.parse::<i32>().ok()),
            call.args.get(1).and_then(|a| a.parse::<i32>().ok()),
        ) else {
            return;
        };
        let pipe_path = format!("pipe:{}", self.fresh("pipeid"));
        let ver = self.ensure_version(&pipe_path, call.time);
        for fd in [rfd, wfd] {
            let local = self.new_local(call, fd);
            self.edge(&ev, &local, "RESULT", call.time);
            self.edge(&local, &ver, "BOUND_TO", call.time);
            self.local_version.insert(local, ver.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskernel::program::{Op, Program, SetupAction};
    use oskernel::{Kernel, OpenFlags};

    fn run(ops: Vec<Op>, setup: Vec<SetupAction>) -> PropertyGraph {
        run_with(ops, setup, OpusConfig::default())
    }

    fn run_with(ops: Vec<Op>, setup: Vec<SetupAction>, config: OpusConfig) -> PropertyGraph {
        let mut prog = Program::new("test");
        for s in setup {
            prog = prog.setup(s);
        }
        prog = prog.ops(ops);
        let mut kernel = Kernel::with_seed(1);
        kernel.run_program(&prog);
        OpusRecorder::new(config).record_graph(kernel.event_log())
    }

    fn events_named<'a>(g: &'a PropertyGraph, func: &str) -> Vec<&'a provgraph::NodeData> {
        g.nodes()
            .filter(|n| {
                n.label.as_str() == "Event"
                    && n.props.get("function").map(String::as_str) == Some(func)
            })
            .collect()
    }

    #[test]
    fn open_creates_four_nodes() {
        let before = run(vec![], vec![]);
        let after = run(
            vec![Op::Open {
                path: "t".into(),
                flags: OpenFlags::RDWR.union(OpenFlags::CREAT),
                mode: 0o644,
                fd_var: "id".into(),
            }],
            vec![],
        );
        assert_eq!(
            after.node_count() - before.node_count(),
            4,
            "event + local + version + global (paper §4.1)"
        );
    }

    #[test]
    fn failed_rename_same_structure_different_ret() {
        let setup = vec![SetupAction::CreateFile {
            path: "/staging/mine".into(),
            mode: 0o644,
        }];
        let ok = run(
            vec![Op::Rename {
                old: "mine".into(),
                new: "theirs".into(),
            }],
            setup.clone(),
        );
        let failed = run(
            vec![
                Op::Setuid { uid: 1000 },
                Op::RenameExpectFailure {
                    old: "mine".into(),
                    new: "/etc/passwd".into(),
                },
            ],
            setup,
        );
        let ok_ev = events_named(&ok, "rename")[0];
        let failed_ev = events_named(&failed, "rename")[0];
        assert_eq!(ok_ev.props.get("ret").map(String::as_str), Some("0"));
        assert_eq!(failed_ev.props.get("ret").map(String::as_str), Some("-13"));
        // Same local structure around the event: count edges incident to it.
        let deg = |g: &PropertyGraph, id: &str| g.out_degree(id) + g.in_degree(id);
        assert_eq!(deg(&ok, &ok_ev.id), deg(&failed, &failed_ev.id));
    }

    #[test]
    fn clone_is_invisible() {
        let base = run(vec![], vec![]);
        let cloned = run(vec![Op::CloneProc { child: vec![] }], vec![]);
        // Raw clone bypasses libc; the child's implicit exit is also
        // unwrapped. Only difference could come from child activity.
        assert_eq!(base.size(), cloned.size(), "clone must leave no trace (NR)");
    }

    #[test]
    fn fork_is_visible_and_large() {
        let base = run(vec![], vec![]);
        let forked = run(vec![Op::Fork { child: vec![] }], vec![]);
        let added = forked.node_count() - base.node_count();
        assert!(added >= 3, "event + child process + env node, got {added}");
        assert!(forked.nodes().any(|n| n.label.as_str() == "Env"));
    }

    #[test]
    fn dup_event_and_resource_not_directly_connected() {
        let ops = vec![
            Op::Open {
                path: "t".into(),
                flags: OpenFlags::RDWR.union(OpenFlags::CREAT),
                mode: 0o644,
                fd_var: "id".into(),
            },
            Op::Dup {
                fd_var: "id".into(),
                new_var: "d".into(),
            },
        ];
        let g = run(ops, vec![]);
        let ev = events_named(&g, "dup")[0];
        // The new local is the one owned by the process after the dup event.
        let locals: Vec<_> = g.nodes().filter(|n| n.label.as_str() == "Local").collect();
        let new_local = locals.last().unwrap();
        assert!(
            !g.edges().any(|e| (e.src == ev.id && e.tgt == new_local.id)
                || (e.src == new_local.id && e.tgt == ev.id)),
            "dup's two components must not be directly connected (§4.1)"
        );
        // Both connect to the same process node.
        let proc_id = g
            .edges()
            .find(|e| e.tgt == ev.id && e.label.as_str() == "EXECUTED")
            .map(|e| e.src.clone())
            .unwrap();
        assert!(g
            .edges()
            .any(|e| e.src == proc_id && e.tgt == new_local.id && e.label.as_str() == "OWNS"));
    }

    #[test]
    fn reads_and_writes_unrecorded_by_default() {
        let ops = |extra: Vec<Op>| {
            let mut v = vec![Op::Open {
                path: "t".into(),
                flags: OpenFlags::RDWR.union(OpenFlags::CREAT),
                mode: 0o644,
                fd_var: "id".into(),
            }];
            v.extend(extra);
            v
        };
        let base = run(ops(vec![]), vec![]);
        let with_io = run(
            ops(vec![
                Op::Write {
                    fd_var: "id".into(),
                    len: 10,
                },
                Op::Read {
                    fd_var: "id".into(),
                    len: 10,
                },
            ]),
            vec![],
        );
        assert_eq!(base.size(), with_io.size(), "default config drops IO (NR)");
        let recorded = run_with(
            ops(vec![Op::Write {
                fd_var: "id".into(),
                len: 10,
            }]),
            vec![],
            OpusConfig {
                record_io: true,
                ..OpusConfig::default()
            },
        );
        assert!(recorded.size() > base.size());
    }

    #[test]
    fn fchmod_and_fchown_unwrapped_but_chmod_recorded() {
        let setup = vec![SetupAction::CreateFile {
            path: "/staging/t".into(),
            mode: 0o644,
        }];
        let base = run(vec![], setup.clone());
        let chmod = run(
            vec![Op::Chmod {
                path: "t".into(),
                mode: 0o600,
            }],
            setup.clone(),
        );
        assert!(chmod.size() > base.size());
        let open_then = |extra: Op| {
            vec![
                Op::Open {
                    path: "t".into(),
                    flags: OpenFlags::RDWR,
                    mode: 0,
                    fd_var: "id".into(),
                },
                extra,
            ]
        };
        let with_open = run(
            open_then(Op::Close {
                fd_var: "id".into(),
            }),
            setup.clone(),
        );
        let fchmod = run(
            vec![
                Op::Open {
                    path: "t".into(),
                    flags: OpenFlags::RDWR,
                    mode: 0,
                    fd_var: "id".into(),
                },
                Op::Fchmod {
                    fd_var: "id".into(),
                    mode: 0o600,
                },
                Op::Close {
                    fd_var: "id".into(),
                },
            ],
            setup,
        );
        assert_eq!(fchmod.size(), with_open.size(), "fchmod unwrapped (NR)");
    }

    #[test]
    fn mknod_recorded_mknodat_not() {
        let base = run(vec![], vec![]);
        let mknod = run(
            vec![Op::Mknod {
                path: "fifo".into(),
                mode: 0o644,
            }],
            vec![],
        );
        assert!(mknod.size() > base.size());
        let mknodat = run(
            vec![Op::Mknodat {
                path: "fifo".into(),
                mode: 0o644,
            }],
            vec![],
        );
        assert_eq!(mknodat.size(), base.size(), "mknodat unwrapped (NR)");
    }

    #[test]
    fn pipe_recorded_tee_not() {
        let base = run(vec![], vec![]);
        let pipe = run(
            vec![Op::PipeOp {
                read_var: "r".into(),
                write_var: "w".into(),
            }],
            vec![],
        );
        assert!(pipe.size() > base.size());
        assert_eq!(events_named(&pipe, "pipe").len(), 1);
        let tee = run(
            vec![
                Op::PipeOp {
                    read_var: "r1".into(),
                    write_var: "w1".into(),
                },
                Op::Pipe2Op {
                    read_var: "r2".into(),
                    write_var: "w2".into(),
                },
                Op::Write {
                    fd_var: "w1".into(),
                    len: 4,
                },
                Op::Tee {
                    in_var: "r1".into(),
                    out_var: "w2".into(),
                    len: 4,
                },
            ],
            vec![],
        );
        assert!(events_named(&tee, "tee").is_empty(), "tee unwrapped (NR)");
    }

    #[test]
    fn setres_family_unwrapped() {
        let base = run(vec![], vec![]);
        let g = run(
            vec![Op::Setresuid {
                ruid: Some(500),
                euid: Some(500),
                suid: Some(500),
            }],
            vec![],
        );
        assert_eq!(g.size(), base.size(), "setresuid unwrapped (NR)");
        let g2 = run(vec![Op::Setuid { uid: 500 }], vec![]);
        assert!(g2.size() > base.size(), "setuid wrapped (ok)");
    }

    #[test]
    fn environment_recorded_at_exec() {
        let g = run(vec![], vec![]);
        let exec_proc = g
            .nodes()
            .find(|n| n.props.contains_key("binary"))
            .expect("exec incarnation exists");
        assert!(
            exec_proc.props.keys().any(|k| k.starts_with("env:")),
            "environment variables recorded (paper §5.1): {:?}",
            exec_proc.props
        );
    }

    #[test]
    fn store_roundtrip_through_neo4jsim() {
        let ops = vec![Op::Creat {
            path: "t".into(),
            mode: 0o644,
            fd_var: "id".into(),
        }];
        let mut prog = Program::new("creat");
        prog = prog.ops(ops);
        let mut kernel = Kernel::with_seed(1);
        kernel.run_program(&prog);
        let rec = OpusRecorder::baseline();
        let mut store = Neo4jStore::new(100);
        rec.record_to_store(kernel.event_log(), &mut store).unwrap();
        let exported = store.export().unwrap();
        assert_eq!(exported, rec.record_graph(kernel.event_log()));
    }

    #[test]
    fn opus_graphs_larger_than_minimum() {
        // Startup alone (fork + exec + loader) must produce a rich graph:
        // OPUS is the most verbose of the three recorders (paper §5.1).
        let g = run(vec![], vec![]);
        assert!(g.node_count() >= 10, "got {}", g.node_count());
        assert!(g.property_count() >= 20);
    }
}
