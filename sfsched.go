// Package sfsched is a library reproduction of "Surplus Fair Scheduling: A
// Proportional-Share CPU Scheduling Algorithm for Symmetric Multiprocessors"
// (Chandra, Adler, Goyal, Shenoy; OSDI 2000).
//
// It provides:
//
//   - The SFS scheduler itself (NewSFS), including the paper's weight
//     readjustment algorithm, the three-queue kernel implementation, the
//     bounded pick heuristic and fixed-point tag arithmetic.
//   - The baselines the paper evaluates against: multiprocessor SFQ with and
//     without readjustment (NewSFQ), and a Linux 2.2-style time-sharing
//     scheduler (NewTimeshare); plus stride and BVT from the paper's related
//     work (NewStride, NewBVT).
//   - A deterministic simulated SMP (NewMachine) standing in for the
//     paper's patched Linux kernel, with workload models for the evaluated
//     applications (Inf, Finite, Periodic, Interactive, Compile).
//   - The GMS fluid reference (NewGMS), the idealized allocation every
//     practical scheduler is measured against.
//
// This package is a thin facade over the internal packages; see
// examples/quickstart for a complete program and DESIGN.md for the system
// inventory.
package sfsched

import (
	"fmt"
	"strings"

	"sfsched/internal/bvt"
	"sfsched/internal/cluster"
	"sfsched/internal/core"
	"sfsched/internal/gms"
	"sfsched/internal/hier"
	"sfsched/internal/lottery"
	"sfsched/internal/machine"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
	"sfsched/internal/timeshare"
	"sfsched/internal/workload"
)

// Time and duration types of the simulated clock (microsecond resolution).
type (
	// Time is an absolute simulated instant.
	Time = simtime.Time
	// Duration is a simulated time span.
	Duration = simtime.Duration
)

// Common durations.
const (
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	// Infinity marks a CPU burst that never ends.
	Infinity = simtime.Infinity
)

// Scheduling types.
type (
	// Thread is the scheduler-visible thread control block.
	Thread = sched.Thread
	// Scheduler is the policy interface the simulated machine drives.
	Scheduler = sched.Scheduler
	// SFS is the surplus fair scheduler (the paper's contribution).
	SFS = core.SFS
	// SFSOption configures NewSFS.
	SFSOption = core.Option
)

// Machine types.
type (
	// Machine is the simulated symmetric multiprocessor.
	Machine = machine.Machine
	// MachineConfig assembles a Machine.
	MachineConfig = machine.Config
	// Task is a simulated process on a Machine.
	Task = machine.Task
	// SpawnConfig describes a Task.
	SpawnConfig = machine.SpawnConfig
	// Behavior generates a task's CPU bursts.
	Behavior = machine.Behavior
	// BehaviorFunc adapts a function to Behavior.
	BehaviorFunc = machine.BehaviorFunc
	// Step is one CPU burst and its boundary action.
	Step = machine.Step
	// Hooks observe machine lifecycle transitions (GMS attachment).
	Hooks = machine.Hooks
	// GMS integrates the idealized fluid allocation.
	GMS = gms.Fluid
)

// Burst boundary actions.
const (
	// ThenBlock sleeps after the burst.
	ThenBlock = machine.ThenBlock
	// ThenExit terminates the task after the burst.
	ThenExit = machine.ThenExit
)

// SFS options (see internal/core for semantics).
var (
	// WithQuantum sets the maximum quantum (q <= 0 keeps the 200 ms default).
	WithQuantum = core.WithQuantum
	// WithHeuristic bounds each scheduling decision to k candidates per
	// run queue (§3.2).
	WithHeuristic = core.WithHeuristic
	// WithFixedPoint uses scaled-integer tags with 10^digits precision.
	WithFixedPoint = core.WithFixedPoint
	// WithAffinity enables the processor-affinity extension.
	WithAffinity = core.WithAffinity
	// WithoutReadjustment disables weight readjustment (ablation).
	WithoutReadjustment = core.WithoutReadjustment
)

// NewSFS returns a surplus fair scheduler for p processors.
func NewSFS(p int, opts ...SFSOption) *SFS { return core.New(p, opts...) }

// NewSFQ returns a multiprocessor start-time fair queueing scheduler; with
// readjust it is coupled with the weight readjustment algorithm.
func NewSFQ(p int, readjust bool) Scheduler {
	if readjust {
		return sfq.New(p, sfq.WithReadjustment())
	}
	return sfq.New(p)
}

// NewTimeshare returns a Linux 2.2-style time-sharing scheduler.
func NewTimeshare(p int) Scheduler { return timeshare.New(p) }

// NewStride returns a stride scheduler.
func NewStride(p int) Scheduler { return stride.New(p) }

// NewBVT returns a borrowed-virtual-time scheduler.
func NewBVT(p int) Scheduler { return bvt.New(p) }

// NewLottery returns a lottery scheduler seeded deterministically.
func NewLottery(p int, seed uint64) Scheduler {
	return lottery.New(p, lottery.WithSeed(seed))
}

// Hierarchical scheduling (the extension answering the paper's §5 open
// problem): threads grouped into weighted classes, SFS at both levels.
type (
	// Hier is the two-level hierarchical SFS scheduler.
	Hier = hier.Hier
	// Class is a scheduling class inside a Hier.
	Class = hier.Class
)

// NewHierarchical returns a two-level hierarchical SFS scheduler with the
// given maximum quantum (0 = the paper's 200 ms default).
func NewHierarchical(p int, quantum Duration) *Hier { return hier.New(p, quantum) }

// NewMachine builds a simulated SMP.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// Concurrent wall-clock runtime (sfsrt): worker goroutines execute real
// submitted tasks with a scheduling policy — SFS by default, any policy via
// RuntimeConfig.Policy — arbitrating measured CPU time between weighted
// tenants. See examples/fairserver and DESIGN.md §5–§7.
type (
	// Runtime is the concurrent wall-clock scheduling runtime.
	Runtime = rt.Runtime
	// RuntimePolicy builds one dispatch shard's scheduler; see
	// RuntimeConfig.Policy and PolicyByName.
	RuntimePolicy = rt.Policy
	// Tenant is a weighted principal submitting tasks to a Runtime.
	Tenant = rt.Tenant
	// RuntimeTask is one unit of tenant work with cooperative timeslicing.
	RuntimeTask = rt.Task
	// PreemptibleTask is a RuntimeTask variant that observes cooperative
	// wakeup preemption through its SliceCtx (see RuntimeConfig.Preempt and
	// the Preemptible submit option).
	PreemptibleTask = rt.PreemptibleTask
	// SliceCtx is a running PreemptibleTask's view of its slice: the
	// granted timeslice hint and the cooperative preemption flag.
	SliceCtx = rt.SliceCtx
	// Dispatched is one in-flight slice of a Manual-mode Runtime — the
	// handle Runtime.Dispatch returns, completed (and, under enforcement,
	// flagged or detached) by the driving test or simulation.
	Dispatched = rt.Dispatched
	// Preempter is the optional scheduler capability behind wakeup
	// preemption: policies implementing it (SFS, SFQ, stride, BVT, hier)
	// rank a newly woken thread against running ones.
	Preempter = sched.Preempter
	// TenantStat is a point-in-time per-tenant metrics view.
	TenantStat = rt.TenantStat
	// LatencyStat summarizes a dispatch-latency distribution (p50/p95/p99
	// from the runtime's log-bucketed histograms).
	LatencyStat = rt.LatencyStat
	// ShardStat is a point-in-time per-shard metrics view of a sharded
	// Runtime.
	ShardStat = rt.ShardStat
	// RuntimeClock supplies the runtime's notion of time.
	RuntimeClock = rt.Clock
	// FakeClock is a manually advanced RuntimeClock for deterministic tests.
	FakeClock = rt.FakeClock
	// RuntimeConfig assembles a Runtime: Workers is required, every other
	// knob defaults when zero (see rt.Config for each field).
	RuntimeConfig = rt.Config
)

// LivePolicies lists the scheduling policies PolicyByName constructs, each
// runnable — and shardable — on the wall-clock runtime: the paper's SFS and
// its two evaluation baselines (SFQ, timeshare) plus the related-work
// schedulers and the hierarchical extension.
func LivePolicies() []string {
	return []string{"sfs", "sfq", "sfq+readjust", "timeshare", "stride", "bvt", "lottery", "hier"}
}

// PolicyByName returns the named scheduling policy as a RuntimePolicy for
// RuntimeConfig.Policy. quantum bounds each dispatch's timeslice hint
// (0 = the paper's 200 ms default; timeshare uses its own Linux 2.2 counter
// quanta and ignores it). Every returned policy runs sharded; SFS, SFQ,
// stride, BVT and hier carry full capability support (virtual time,
// surplus-ranked migration, frame translation), while timeshare and lottery
// shard through the runtime's generic lag fallback (DESIGN.md §7).
func PolicyByName(name string, quantum Duration) (RuntimePolicy, error) {
	if quantum <= 0 {
		quantum = core.DefaultQuantum
	}
	switch name {
	case "", "sfs":
		return func(cpus int) Scheduler { return core.New(cpus, core.WithQuantum(quantum)) }, nil
	case "sfq":
		return func(cpus int) Scheduler { return sfq.New(cpus, sfq.WithQuantum(quantum)) }, nil
	case "sfq+readjust":
		return func(cpus int) Scheduler {
			return sfq.New(cpus, sfq.WithQuantum(quantum), sfq.WithReadjustment())
		}, nil
	case "timeshare":
		return func(cpus int) Scheduler { return timeshare.New(cpus) }, nil
	case "stride":
		return func(cpus int) Scheduler { return stride.New(cpus, stride.WithQuantum(quantum)) }, nil
	case "bvt":
		return func(cpus int) Scheduler { return bvt.New(cpus, bvt.WithQuantum(quantum)) }, nil
	case "lottery":
		return func(cpus int) Scheduler { return lottery.New(cpus, lottery.WithQuantum(quantum)) }, nil
	case "hier":
		return func(cpus int) Scheduler { return hier.New(cpus, quantum) }, nil
	default:
		return nil, fmt.Errorf("sfsched: unknown policy %q (have %s)",
			name, strings.Join(LivePolicies(), ", "))
	}
}

// Sentinel errors of the runtime and cluster tiers. Every failure mode the
// facade can surface is one of these, match them with errors.Is; the
// conformance test (errors_test.go) holds the full set distinct.
var (
	// ErrRuntimeClosed reports an operation on a closed runtime.
	ErrRuntimeClosed = rt.ErrRuntimeClosed
	// ErrTenantClosed reports an operation on an unregistered tenant.
	ErrTenantClosed = rt.ErrTenantClosed
	// ErrBackpressure reports a SubmitTask with NoWait against a full
	// tenant backlog.
	ErrBackpressure = rt.ErrBackpressure
	// ErrForeignTenant reports a tenant handed to a runtime that does not
	// own it.
	ErrForeignTenant = rt.ErrForeignTenant
	// ErrMigrationRace reports a cross-machine Deport against a tenant that
	// is transiently unmovable (running, mid-continuation, submits in
	// flight); the cluster migrator retries on a later pass.
	ErrMigrationRace = rt.ErrMigrationRace
	// ErrNoMachines reports a ClusterConfig with no machines.
	ErrNoMachines = cluster.ErrNoMachines
	// ErrClusterClosed reports an operation on a closed cluster.
	ErrClusterClosed = cluster.ErrClusterClosed
)

// NewRuntime builds a wall-clock runtime and starts its worker pool; set
// RuntimeConfig.Shards > 1 for sharded per-CPU dispatch with background
// weight rebalancing, and RuntimeConfig.Policy (e.g. via PolicyByName) to
// dispatch with a policy other than SFS (see internal/rt and DESIGN.md
// §6–§7).
func NewRuntime(cfg RuntimeConfig) *Runtime { return rt.New(cfg) }

// SubmitOption modifies one Tenant.SubmitTask call, the single submit entry
// point; options are plain values, so the submit hot path stays
// allocation-free.
type SubmitOption = rt.SubmitOption

// NoWait makes SubmitTask fail with ErrBackpressure instead of blocking
// while the tenant's backlog is full.
func NoWait() SubmitOption { return rt.NoWait() }

// Preemptible submits task as a PreemptibleTask (pass a nil plain task
// alongside it).
func Preemptible(task PreemptibleTask) SubmitOption { return rt.Preemptible(task) }

// Cluster tier: a scheduler over many Runtime "machines" with
// power-of-k-choices placement, surplus-driven cross-machine migration and a
// cluster-wide fairness rollup (see internal/cluster and DESIGN.md §11).
type (
	// Cluster is a cluster scheduler owning N runtime machines.
	Cluster = cluster.Cluster
	// ClusterConfig assembles a Cluster: Machines, K (placement choices),
	// per-machine runtime knobs, and the migrator's period/tolerance.
	ClusterConfig = cluster.Config
	// ClusterTenant is a tenant placed on (and migrated between) the
	// cluster's machines.
	ClusterTenant = cluster.Tenant
	// ClusterTenantStat is a per-tenant metrics view with machine
	// attribution and cluster-wide shares.
	ClusterTenantStat = cluster.TenantStat
	// MachineStat is a per-machine load/fairness rollup.
	MachineStat = cluster.MachineStat
	// Node is one machine as the cluster sees it; *Runtime satisfies it and
	// tests may stub it.
	Node = cluster.Node
	// NodeLoad is a machine's point-in-time load summary, the
	// power-of-k-choices placement signal.
	NodeLoad = rt.NodeLoad
	// Departure is a deported tenant in transit between machines.
	Departure = rt.Departure
)

// NewCluster builds a cluster of cfg.Machines identical machines and starts
// its background migrator (unless Manual or MigrateEvery < 0).
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ComposeCluster builds a cluster over caller-supplied nodes — stubs or
// instrumented runtimes; machine-level ClusterConfig fields are ignored.
func ComposeCluster(cfg ClusterConfig, nodes ...Node) (*Cluster, error) {
	return cluster.Compose(cfg, nodes...)
}

// NewFakeClock returns a manually advanced clock at time 0.
func NewFakeClock() *FakeClock { return rt.NewFakeClock() }

// RunOnce adapts a plain closure to a RuntimeTask completing in one dispatch.
func RunOnce(fn func()) RuntimeTask { return rt.Once(fn) }

// NewGMS returns the idealized GMS fluid integrator for p processors.
func NewGMS(p int) *GMS { return gms.New(p) }

// Workload constructors (the paper's evaluated applications).
var (
	// Inf is a compute loop that never blocks.
	Inf = workload.Inf
	// Finite is a compute task of fixed demand that exits.
	Finite = workload.Finite
	// Periodic alternates fixed bursts and sleeps.
	Periodic = workload.Periodic
	// Interactive models the Interact application.
	Interactive = workload.Interactive
	// Compile models a gcc job.
	Compile = workload.Compile
	// CompileForever models a repeated build.
	CompileForever = workload.CompileForever
)
