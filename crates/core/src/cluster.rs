//! Cluster assembly: CNs + CBoards + switch + controller.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use clio_cn::CLibConfig;
use clio_mn::{CBoard, CBoardConfig, Offload};
use clio_net::{ChaosSchedule, Mac, Network, NetworkConfig};
use clio_proto::Pid;
use clio_sim::{ActorId, Bandwidth, SimDuration, SimTime, Simulation};
use clio_trace::metrics::Registry;
use clio_trace::{OpTrace, Tracer, Track};

use crate::controller::Controller;
use crate::exec::ProcHandle;
use crate::node::{ComputeNode, StartClients};

/// RAS bytes owned by each MN (its VA slice span).
const MN_SLICE_SPAN: u64 = 1 << 40;

/// Deployment shape and component configurations.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// RNG seed (whole run is deterministic in it).
    pub seed: u64,
    /// Number of compute nodes.
    pub cns: usize,
    /// Number of memory nodes (CBoards).
    pub mns: usize,
    /// Board template (each MN gets a disjoint VA slice stamped in).
    pub board: CBoardConfig,
    /// CLib configuration for every CN.
    pub clib: CLibConfig,
    /// Physical-memory utilization at which boards report pressure.
    pub pressure_threshold: f64,
    /// Cross-layer op tracing: `Some(n)` records per-stage latency spans
    /// for every `n`-th op begun on each CN (`1` = every op), exportable
    /// via [`Cluster::take_traces`]; `None` (the default) disables tracing
    /// entirely — op headers and wire timing are identical either way, so
    /// a traced run's `Simulation::digest` matches the untraced one.
    pub trace_sample_every: Option<u64>,
}

impl ClusterConfig {
    /// CN NIC rate (testbed: 40 Gbps ConnectX-3).
    pub const CN_NIC_RATE: Bandwidth = Bandwidth::from_gbps(40);

    /// The paper's testbed shape: 4 CNs, 4 MNs (§7 Environment).
    pub fn testbed() -> Self {
        ClusterConfig {
            seed: 0xC110,
            cns: 4,
            mns: 4,
            board: CBoardConfig::prototype(),
            clib: CLibConfig::prototype(),
            pressure_threshold: 0.9,
            trace_sample_every: None,
        }
    }

    /// `self` with tracing enabled at the given sampling rate (`1` traces
    /// every op).
    pub fn with_tracing(mut self, sample_every: u64) -> Self {
        self.trace_sample_every = Some(sample_every);
        self
    }

    /// A small single-CN/single-MN configuration for tests.
    pub fn test_small() -> Self {
        ClusterConfig { cns: 1, mns: 1, board: CBoardConfig::test_small(), ..Self::testbed() }
    }
}

/// A built cluster, ready to run.
pub struct Cluster {
    /// The simulation driving everything.
    pub sim: Simulation,
    /// The fabric handle (fault injection, port stats).
    pub net: Network,
    controller: ActorId,
    cns: Vec<ActorId>,
    mns: Vec<ActorId>,
    mn_macs: Vec<Mac>,
    started: bool,
    tracer: Tracer,
}

impl Cluster {
    /// Builds the deployment described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has zero CNs or MNs.
    pub fn build(cfg: &ClusterConfig) -> Self {
        assert!(cfg.cns > 0 && cfg.mns > 0, "cluster needs at least one CN and MN");
        let mut sim = Simulation::new(cfg.seed);
        let mut net = Network::new(&mut sim, NetworkConfig::default());
        let mut controller = Controller::new();

        // Memory nodes, each owning a disjoint RAS slice.
        let mut mns = Vec::new();
        let mut mn_macs = Vec::new();
        let mut slices = Vec::new();
        for i in 0..cfg.mns {
            let slice_base = (1u64 << 20).max((i as u64) * MN_SLICE_SPAN + (1 << 20));
            let mut board_cfg = cfg.board.clone();
            board_cfg.va_window = Some((slice_base, MN_SLICE_SPAN - (2 << 20)));
            let port = net.create_port(cfg.board.port_rate);
            let mac = port.mac();
            let board = CBoard::new(format!("mn{i}"), board_cfg, port);
            let id = sim.add_actor(board);
            net.attach(&mut sim, mac, id);
            controller.register_mn(mac, id, slice_base, MN_SLICE_SPAN, cfg.board.hw.phys_mem_bytes);
            slices.push((slice_base, MN_SLICE_SPAN, mac));
            mns.push(id);
            mn_macs.push(mac);
        }

        let controller_id = sim.add_actor(controller);
        for &mn in &mns {
            sim.actor_mut::<CBoard>(mn).set_controller(controller_id, cfg.pressure_threshold);
        }

        // Compute nodes, each registered with the controller so committed
        // migrations broadcast routing-cache invalidations to all of them.
        let mut cns = Vec::new();
        for i in 0..cfg.cns {
            let port = net.create_port(ClusterConfig::CN_NIC_RATE);
            let mac = port.mac();
            let node = ComputeNode::new(
                format!("cn{i}"),
                i,
                port,
                cfg.clib,
                cfg.board.hw.page_size,
                controller_id,
                slices.clone(),
            );
            let id = sim.add_actor(node);
            net.attach(&mut sim, mac, id);
            sim.actor_mut::<Controller>(controller_id).register_cn(id);
            cns.push(id);
        }

        // Observability wiring: one tracer spans the whole deployment,
        // injected post-build so constructors stay unchanged.
        let tracer = match cfg.trace_sample_every {
            Some(n) => Tracer::enabled(n),
            None => Tracer::disabled(),
        };
        for (i, &cn) in cns.iter().enumerate() {
            sim.actor_mut::<ComputeNode>(cn).set_tracer(tracer.clone(), Track::Cn(i as u32));
        }
        for (i, &mn) in mns.iter().enumerate() {
            let board = sim.actor_mut::<CBoard>(mn);
            board.set_tracer(tracer.clone(), Track::Mn(i as u32));
        }

        Cluster { sim, net, controller: controller_id, cns, mns, mn_macs, started: false, tracer }
    }

    /// The cluster-wide span collector (disabled unless
    /// [`ClusterConfig::trace_sample_every`] was set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains the completed op traces collected so far (each one checked
    /// against the stage-tiling invariant by `clio_trace::check_trace`).
    pub fn take_traces(&mut self) -> Vec<OpTrace> {
        self.tracer.take_finished()
    }

    /// The unified metrics registry: a view that walks every CN's
    /// CLib/transport/runtime metrics, every MN's board/silicon/VM/TLB
    /// counters and the controller's migration counters as they are now,
    /// under `cn<i>.*` / `mn<i>.*` / `controller.*`. A measurement window is
    /// the difference of two snapshots.
    pub fn registry(&self) -> Registry<'_> {
        let mut registry = Registry::default();
        registry.add("controller", self.controller());
        for i in 0..self.cns.len() {
            registry.add(format!("cn{i}"), self.cn(i));
        }
        for i in 0..self.mns.len() {
            registry.add(format!("mn{i}"), self.mn(i));
        }
        registry
    }

    /// The controller actor id.
    pub fn controller_id(&self) -> ActorId {
        self.controller
    }

    /// Borrows the global controller (placement/migration accounting).
    pub fn controller(&self) -> &Controller {
        self.sim.actor::<Controller>(self.controller)
    }

    /// Compute-node actor ids.
    pub fn cn_ids(&self) -> &[ActorId] {
        &self.cns
    }

    /// Memory-node actor ids.
    pub fn mn_ids(&self) -> &[ActorId] {
        &self.mns
    }

    /// Memory-node MACs (offload targeting).
    pub fn mn_macs(&self) -> &[Mac] {
        &self.mn_macs
    }

    /// Spawns an async client program as process `pid` on compute node
    /// `cn`: registers a fresh [`ExecDriver`](crate::exec::ExecDriver) and
    /// seeds it with the task `f` returns. The task starts at
    /// [`start`](Self::start); clone the [`ProcHandle`] it receives to spawn
    /// further tasks. Returns the executor's index on that CN.
    ///
    /// # Panics
    ///
    /// Panics if called after [`start`](Self::start) or with a bad index.
    pub fn spawn<F, Fut>(&mut self, cn: usize, pid: Pid, f: F) -> usize
    where
        F: FnOnce(ProcHandle) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(!self.started, "spawn processes before starting the cluster");
        let (idx, handle) = self.sim.actor_mut::<ComputeNode>(self.cns[cn]).add_process(pid);
        handle.spawn(f(handle.clone()));
        idx
    }

    /// Runs one program to completion and returns what it returns:
    /// [`spawn`](Self::spawn) + [`start`](Self::start) +
    /// [`run_until_idle`](Self::run_until_idle). Processes spawned before
    /// the call run alongside it.
    ///
    /// # Panics
    ///
    /// Panics if the cluster went idle before the program finished (it
    /// awaits something that never happens), or under `spawn`'s conditions.
    pub fn block_on<F, Fut, T>(&mut self, cn: usize, pid: Pid, f: F) -> T
    where
        F: FnOnce(ProcHandle) -> Fut,
        Fut: Future<Output = T> + 'static,
        T: 'static,
    {
        let out = Rc::new(Cell::new(None));
        let sink = out.clone();
        self.spawn(cn, pid, |h| {
            let program = f(h);
            async move { sink.set(Some(program.await)) }
        });
        self.start();
        self.run_until_idle();
        out.take().expect("cluster went idle before the program finished")
    }

    /// Installs an offload module on memory node `mn`.
    pub fn install_offload(&mut self, mn: usize, id: u16, pid: Pid, module: Box<dyn Offload>) {
        self.sim.actor_mut::<CBoard>(self.mns[mn]).install_offload(id, pid, module);
    }

    /// Installs an offload that runs in each caller's own address space
    /// (Clio-DF style, §6).
    pub fn install_offload_shared(&mut self, mn: usize, id: u16, module: Box<dyn Offload>) {
        self.sim.actor_mut::<CBoard>(self.mns[mn]).install_offload_shared(id, module);
    }

    /// Installs a seeded chaos schedule: link actions are pre-posted to the
    /// fabric switch, board power cycles to the target `CBoard` actors, all
    /// at their absolute fire times. Installing the same schedule into the
    /// same cluster build always yields the same run digest — chaos draws
    /// no runtime randomness.
    ///
    /// # Panics
    ///
    /// Panics if a `CrashBoard`/`RestartBoard` action targets a MAC that is
    /// not one of this cluster's memory nodes.
    pub fn apply_chaos(&mut self, schedule: &ChaosSchedule) {
        let switch = self.net.switch_id();
        let (macs, ids) = (self.mn_macs.clone(), self.mns.clone());
        schedule.install(&mut self.sim, switch, |mac| {
            let i = macs
                .iter()
                .position(|&m| m == mac)
                .expect("chaos board action must target a memory node");
            ids[i]
        });
    }

    /// Starts every spawned process.
    pub fn start(&mut self) {
        self.started = true;
        for &cn in &self.cns {
            self.sim.post(cn, clio_sim::Message::new(StartClients));
        }
    }

    /// Runs the cluster until no events remain.
    pub fn run_until_idle(&mut self) {
        self.sim.run_until_idle();
    }

    /// Runs the cluster for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Borrows a compute node (stats, executor state).
    pub fn cn(&self, i: usize) -> &ComputeNode {
        self.sim.actor::<ComputeNode>(self.cns[i])
    }

    /// Borrows a memory node (silicon/allocator inspection).
    pub fn mn(&self, i: usize) -> &CBoard {
        self.sim.actor::<CBoard>(self.mns[i])
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("cns", &self.cns.len())
            .field("mns", &self.mns.len())
            .field("now", &self.sim.now())
            .finish()
    }
}
