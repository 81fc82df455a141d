// Package ppa is the public API of the PPA reproduction — the Passive
// and Partially Active fault-tolerance framework for massively parallel
// stream processing engines of Su & Zhou, "Tolerating Correlated
// Failures in Massively Parallel Stream Processing Engines" (ICDE
// 2016).
//
// The package re-exports the curated surface of the internal
// implementation:
//
//   - building query topologies (operators, tasks, partitionings);
//   - the Output Fidelity / Internal Completeness quality metrics;
//   - the replication-plan optimisers (dynamic programming, greedy,
//     structured, full-topology, structure-aware and the portfolio
//     meta-planner), all behind the Planner interface and
//     selectable by registry name;
//   - the deterministic discrete-event streaming engine with
//     checkpointing, active replication, failure injection, recovery
//     and tentative outputs;
//   - the evaluation workloads (top-k over an access log, traffic
//     incident detection, the synthetic recovery topology) and the
//     drivers regenerating every figure of the paper's evaluation.
//
// See the examples/ directory for runnable end-to-end scenarios and
// DESIGN.md for the architecture.
package ppa

import (
	"context"
	"io"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fidelity"
	"repro/internal/mctree"
	"repro/internal/plan"
	"repro/internal/randtopo"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topology"
)

// --- Topology model ---

// Topology is a validated task-level query DAG with failure-free stream
// rates. Build one with NewBuilder or FromSpec.
type Topology = topology.Topology

// Builder assembles topologies.
type Builder = topology.Builder

// OpRef refers to an operator added to a Builder.
type OpRef = topology.OpRef

// TaskID identifies a task within a topology.
type TaskID = topology.TaskID

// Partitioning describes how a stream is partitioned between
// neighbouring operators.
type Partitioning = topology.Partitioning

// Partitioning kinds (§II-A of the paper).
const (
	OneToOne = topology.OneToOne
	Split    = topology.Split
	Merge    = topology.Merge
	Full     = topology.Full
)

// InputKind classifies operators by input correlation.
type InputKind = topology.InputKind

// Input kinds: Independent unions its input streams, Correlated joins
// them (§III-A1).
const (
	Independent = topology.Independent
	Correlated  = topology.Correlated
)

// Spec is the JSON-serialisable topology description used by the CLI
// tools.
type Spec = topology.Spec

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder { return topology.NewBuilder() }

// FromSpec builds a topology from its serialisable description.
func FromSpec(s Spec) (*Topology, error) { return topology.FromSpec(s) }

// ToSpec converts a topology back to its description.
func ToSpec(t *Topology) Spec { return topology.ToSpec(t) }

// --- Quality metrics ---

// FidelityModel evaluates Output Fidelity (Eq. 1-4) and Internal
// Completeness for one topology.
type FidelityModel = fidelity.Model

// FidelityEvaluator holds reusable evaluation state.
type FidelityEvaluator = fidelity.Evaluator

// NewFidelityModel builds a metric model for the topology.
func NewFidelityModel(t *Topology) *FidelityModel { return fidelity.NewModel(t) }

// --- MC-trees ---

// MCTree is a minimal complete tree (Definition 1).
type MCTree = mctree.Tree

// EnumerateMCTrees lists the MC-trees of a topology (capped).
func EnumerateMCTrees(t *Topology, maxTrees int) ([]MCTree, error) {
	return mctree.Enumerate(t, maxTrees)
}

// CountMCTrees counts MC-tree derivations without enumeration.
func CountMCTrees(t *Topology) float64 { return mctree.Count(t) }

// MinMCTreeSize returns the size of the smallest MC-tree — the minimum
// useful replication budget.
func MinMCTreeSize(t *Topology) int { return mctree.MinTreeSize(t) }

// --- Planning ---

// Plan is a partially active replication plan (the set of tasks chosen
// for active replication).
type Plan = plan.Plan

// NewPlan returns an empty plan for a topology with n tasks — the
// starting point of custom Planner implementations.
func NewPlan(n int) Plan { return plan.New(n) }

// Planner is the uniform optimiser interface: every planning algorithm
// (and any user-supplied one registered with RegisterPlanner) computes
// a plan from a shared PlanContext and a budget.
type Planner = plan.Planner

// PlanContext is the memoized, concurrency-safe objective evaluator
// shared by the planners of one topology.
type PlanContext = plan.Context

// NewPlanContext builds a planning context for the topology.
func NewPlanContext(t *Topology) *PlanContext { return plan.NewContext(t) }

// RegisterPlanner adds a planner to the global registry; it then
// becomes selectable by name in Manager.PlanByName, cmd/ppaplan and the
// Portfolio meta-planner.
func RegisterPlanner(p Planner) { plan.Register(p) }

// LookupPlanner returns the registered planner with the given name.
func LookupPlanner(name string) (Planner, bool) { return plan.Lookup(name) }

// PlannerNames lists the registered planner names ("dp", "dp-corr",
// "full", "greedy", "portfolio", "sa", "sa-corr", "sa-ic",
// "structured", "structured-corr", ...).
func PlannerNames() []string { return plan.Names() }

// --- Correlation-aware planning ---

// CorrScenarioSet is a domain-correlated failure distribution over task
// sets: sampled sets of primary tasks failing together, deduplicated
// with accumulated weights. It is the input of the correlation-aware
// objective optimised by the *-corr planners.
type CorrScenarioSet = plan.ScenarioSet

// NewCorrScenarioSet builds the distribution from equally likely
// sampled task sets for a topology with n tasks.
func NewCorrScenarioSet(n int, sets [][]TaskID) (*CorrScenarioSet, error) {
	return plan.NewScenarioSet(n, sets)
}

// SampleTaskScenarios draws failure scenarios per burst model against
// the cluster's domain tree and maps each to the set of primary tasks
// it kills — the standard way to produce a CorrScenarioSet. Install the
// result with PlanContext.SetScenarios (or Manager.SetScenarios) before
// running a *-corr planner.
func SampleTaskScenarios(c *Cluster, spec ScenarioSpec, models []BurstModel) ([][]TaskID, error) {
	return campaign.SampleTaskScenarios(c, spec, models)
}

// Manager computes PPA replication plans for one topology.
type Manager = core.Manager

// Algorithm selects the plan optimiser.
type Algorithm = core.Algorithm

// Planning algorithms (§IV), plus the portfolio meta-planner.
const (
	SA        = core.AlgorithmSA
	DP        = core.AlgorithmDP
	Greedy    = core.AlgorithmGreedy
	SAIC      = core.AlgorithmSAIC
	Portfolio = core.AlgorithmPortfolio
)

// PlanResult is a computed plan with its predicted quality metrics.
type PlanResult = core.Result

// NewManager builds a plan manager for the topology.
func NewManager(t *Topology) *Manager { return core.NewManager(t) }

// PlanDiff computes the dynamic-adaptation delta between two plans
// (§V-C): replicas to create and replicas to deactivate.
func PlanDiff(old, new Plan) (activate, deactivate []TaskID) {
	return core.Diff(old, new)
}

// --- Cluster ---

// Cluster models processing and standby nodes with task placement and
// a hierarchical failure-domain tree (node -> rack -> zone).
type Cluster = cluster.Cluster

// NodeID identifies a cluster node.
type NodeID = cluster.NodeID

// NewCluster builds a cluster with the given node counts.
func NewCluster(processing, standby int) *Cluster {
	return cluster.New(processing, standby)
}

// DomainID identifies a failure domain; RootDomain is the cluster
// itself.
type DomainID = cluster.DomainID

// Domain is one failure domain of the cluster's domain tree.
type Domain = cluster.Domain

// RootDomain is the implicit whole-cluster failure domain.
const RootDomain = cluster.RootDomain

// DomainLayout describes a regular zones × racks failure-domain
// hierarchy for Cluster.BuildDomains.
type DomainLayout = cluster.Layout

// DefaultDomainLayout is a 2-zone, 2-racks-per-zone layout with standby
// nodes spread across the racks.
func DefaultDomainLayout() DomainLayout { return cluster.DefaultLayout() }

// PlacementPolicy selects how active replicas are placed on the standby
// nodes.
type PlacementPolicy = cluster.PlacementPolicy

// Replica placement policies: rack/zone anti-affinity (the default — a
// replica never shares its primary's rack) and the legacy domain-blind
// round-robin.
const (
	PlacementAntiAffinity = cluster.PlacementAntiAffinity
	PlacementRoundRobin   = cluster.PlacementRoundRobin
)

// ParsePlacementPolicy resolves a placement policy name
// ("anti-affinity", "round-robin").
func ParsePlacementPolicy(s string) (PlacementPolicy, error) {
	return cluster.ParsePlacementPolicy(s)
}

// ErrAntiAffinity is wrapped by replica placement when the standby pool
// cannot host a replica outside its primary's rack.
var ErrAntiAffinity = cluster.ErrAntiAffinity

// --- Engine ---

// Engine executes a topology on the deterministic discrete-event
// kernel with PPA fault tolerance.
type Engine = engine.Engine

// EngineSetup describes an engine instance.
type EngineSetup = engine.Setup

// EngineConfig is the engine cost model and fault-tolerance
// configuration.
type EngineConfig = engine.Config

// Strategy selects the fault-tolerance technique protecting a task.
type Strategy = engine.Strategy

// Fault-tolerance strategies.
const (
	StrategyCheckpoint   = engine.StrategyCheckpoint
	StrategyActive       = engine.StrategyActive
	StrategySourceReplay = engine.StrategySourceReplay
	StrategyNone         = engine.StrategyNone
)

// Tuple is one data item.
type Tuple = engine.Tuple

// Batch is the content of one processing batch on one substream.
type Batch = engine.Batch

// Emitter receives operator outputs.
type Emitter = engine.Emitter

// OperatorFunc is the user-defined function run by each task.
type OperatorFunc = engine.OperatorFunc

// OperatorFactory builds per-task operator instances.
type OperatorFactory = engine.OperatorFactory

// SourceFunc generates source batches deterministically.
type SourceFunc = engine.SourceFunc

// SourceFactory builds per-task sources.
type SourceFactory = engine.SourceFactory

// FuncSource adapts a function to SourceFunc.
type FuncSource = engine.FuncSource

// SinkRecord is one output tuple observed at a sink task. Tentative
// marks output computed from incomplete input anywhere upstream;
// Amendment marks a post-recovery correction record.
type SinkRecord = engine.SinkRecord

// AccuracyStats summarises the tentative/correction lifecycle of a
// run's sink output: firm vs tentative volume, corrected batches and
// per-batch time-to-correction (Engine.AccuracyStats).
type AccuracyStats = engine.AccuracyStats

// RecoveryStat records one task failure's detection and recovery.
type RecoveryStat = engine.RecoveryStat

// Time is virtual time in seconds.
type Time = sim.Time

// NewEngine builds an engine.
func NewEngine(s EngineSetup) (*Engine, error) { return engine.New(s) }

// NewWindowCountFactory builds the synthetic windowed operator of the
// recovery experiments.
func NewWindowCountFactory(windowBatches int, selectivity float64) OperatorFactory {
	return engine.NewWindowCountFactory(windowBatches, selectivity)
}

// NewCountSourceFactory builds a constant-rate unmaterialised source.
func NewCountSourceFactory(perBatch int) SourceFactory {
	return engine.NewCountSourceFactory(perBatch)
}

// NewPassthroughFactory builds a stateless forwarding operator.
func NewPassthroughFactory() OperatorFactory { return engine.NewPassthroughFactory() }

// --- Failure campaigns ---

// BurstModel is the shape of one randomized correlated failure
// (single node, k-of-rack, whole domain, cascading multi-domain).
type BurstModel = campaign.Model

// Burst models of the Monte-Carlo failure campaigns.
const (
	BurstSingleNode  = campaign.SingleNode
	BurstKOfRack     = campaign.KOfRack
	BurstWholeDomain = campaign.WholeDomain
	BurstCascade     = campaign.Cascade
)

// BurstModels lists every burst model.
func BurstModels() []BurstModel { return campaign.Models }

// FailureWave is one instant of a scenario: nodes failing together.
type FailureWave = campaign.Wave

// FailureScenario is one reproducible multi-wave failure scenario.
type FailureScenario = campaign.Scenario

// ScenarioSpec controls scenario generation (seed, count, burst model,
// correlation strength, injection time). Its optional timing fields are
// pointers: nil selects the documented default, Ptr(0) is honoured
// verbatim (e.g. JitterS: Ptr(0.0) disables injection-time jitter).
// Scenario i depends only on (Seed, i), so campaigns sharing a seed
// replay identical draws and can be compared pairwise (PairedCampaign);
// Tilt >= 1 importance-samples rare cascades, attaching a
// likelihood-ratio weight to each scenario that campaign summaries
// reweight by.
type ScenarioSpec = campaign.GenSpec

// Ptr returns a pointer to v — shorthand for ScenarioSpec's explicit
// optional fields.
func Ptr[T any](v T) *T { return campaign.Ptr(v) }

// GenerateScenarios draws seeded failure scenarios against the
// cluster's failure-domain tree.
func GenerateScenarios(c *Cluster, spec ScenarioSpec) ([]FailureScenario, error) {
	return campaign.Generate(c, spec)
}

// CampaignConfig describes a Monte-Carlo failure campaign. Campaigns
// aggregate by streaming: results fold into mergeable quantile
// sketches in scenario order and are then discarded, so memory stays
// flat however many scenarios run. Set KeepResults to retain
// CampaignReport.Results, or OnResult to observe each result (in
// scenario-index order) without retaining it; Shards fixes the
// reduction layout — for a fixed seed and shard count the summary is
// bit-identical at any Workers. StopTol > 0 enables CI-driven early
// stopping: the campaign halts at the first shard-block checkpoint
// where the p95-loss CI half-width is within the tolerance, at the
// same scenario whether run single-process or distributed.
type CampaignConfig = campaign.Config

// CampaignReport is the outcome of a campaign: aggregated
// recovery-latency, output-loss and answer-quality (tentative/
// corrected fraction, time-to-correction) distributions, plus the
// per-scenario results when CampaignConfig.KeepResults is set.
type CampaignReport = campaign.Report

// CampaignSummary aggregates a campaign (mean/p50/p95/p99). Counts,
// Mean and Max are exact; quantiles carry the summary's rank-error
// bound (see WeightedQuantileSketch) and are exact for campaigns with
// fewer than 4·DefaultSketchK samples per metric. ESS is the effective
// sample size of the (possibly importance-weighted) loss estimate —
// exactly the scenario count for plain campaigns, and above it when a
// tilt reduces variance.
type CampaignSummary = campaign.Summary

// CampaignResult is one scenario's outcome, as retained in
// CampaignReport.Results or streamed to CampaignConfig.OnResult.
type CampaignResult = campaign.ScenarioResult

// Distribution summarises one sample distribution.
type Distribution = campaign.Dist

// RunCampaign executes every scenario as an independent simulation on a
// worker pool; for a fixed seed (and shard count) the report is
// identical regardless of the worker count. The runner keeps one
// engine per worker and resets it between scenarios (bit-identical to
// a fresh setup); CampaignConfig.DisableReuse forces the fresh-setup
// path. A scenario error aborts the campaign promptly without
// draining the remaining scenarios.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) { return campaign.Run(cfg) }

// RunCampaignContext is RunCampaign under a context: cancelling ctx
// aborts the sweep promptly and returns the context's error. Worker
// timeouts, user cancellation and fail-fast scenario errors all share
// this one mechanism.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	return campaign.RunContext(ctx, cfg)
}

// CampaignConfigError is the typed validation error returned by
// CampaignConfig.Validate (and by the campaign entry points, which
// validate first): it names the offending field and the reason.
type CampaignConfigError = campaign.ConfigError

// CampaignBaselineVolume runs (or looks up) the failure-free baseline
// for the campaign and returns its sink volume — the denominator of
// relative output loss. Coordinators resolve the baseline once and
// ship it to every worker so all ranges measure loss identically.
func CampaignBaselineVolume(cfg CampaignConfig) (int, error) {
	return campaign.BaselineVolume(cfg)
}

// --- Distributed campaigns ---

// CampaignRange is a half-open, shard-aligned range [Lo, Hi) of a
// campaign's scenario index space — the unit of distributed work.
type CampaignRange = campaign.Range

// PartitionCampaign splits the campaign's scenario index space into at
// most parts contiguous shard-aligned ranges covering every scenario.
func PartitionCampaign(cfg CampaignConfig, parts int) ([]CampaignRange, error) {
	return campaign.Partition(cfg, parts)
}

// CampaignShardState is one shard's serialised aggregation state
// (deterministic binary sketch encodings plus exact counters) — what
// workers return and MergeCampaignShards folds back together.
type CampaignShardState = campaign.ShardState

// RunCampaignRange executes one shard-aligned scenario range and
// returns the serialised per-shard states it produced.
func RunCampaignRange(cfg CampaignConfig, r CampaignRange) ([]CampaignShardState, error) {
	return campaign.RunRange(cfg, r)
}

// RunCampaignRangeContext is RunCampaignRange under a context.
func RunCampaignRangeContext(ctx context.Context, cfg CampaignConfig, r CampaignRange) ([]CampaignShardState, error) {
	return campaign.RunRangeContext(ctx, cfg, r)
}

// MergeCampaignShards merges shard states from any partitioning of one
// campaign into its summary — bit-identical to the single-process run
// for the same (seed, Shards), whatever the range assignment.
func MergeCampaignShards(states []CampaignShardState) (CampaignSummary, error) {
	return campaign.MergeShardStates(states)
}

// CampaignWireSpec is the self-contained, JSON-serialisable form of a
// campaign: environment, scenario generators and run parameters.
// Workers rebuild the identical CampaignConfig from it — scenarios are
// regenerated from their seeds on each side, never shipped.
type CampaignWireSpec = campaign.WireSpec

// NewCampaignWireSpec captures an environment spec and scenario
// generators as a wire-transportable campaign description.
func NewCampaignWireSpec(spec CampaignEnvSpec, gens []ScenarioSpec) (CampaignWireSpec, error) {
	return campaign.NewWireSpec(spec, gens)
}

// CampaignWorkerPool is a coordinator's set of campaign worker
// processes (locally spawned via AddProcess, or remote TCP connections
// via AddConn/AcceptWorkers). RunJob partitions a campaign across the
// live workers, reassigns ranges of lost workers, and merges the
// returned shard states into the single-process summary.
type CampaignWorkerPool = coord.Pool

// CampaignWorkerPoolOptions tunes coordinator-side liveness and
// scheduling (heartbeat timeout, range retries, ranges per worker).
type CampaignWorkerPoolOptions = coord.PoolOptions

// NewCampaignWorkerPool returns an empty worker pool.
func NewCampaignWorkerPool(opts CampaignWorkerPoolOptions) *CampaignWorkerPool {
	return coord.NewPool(opts)
}

// CampaignWorkerOptions tunes the worker side of the protocol.
type CampaignWorkerOptions = coord.WorkerOptions

// ServeCampaignWorker runs the worker half of the campaign protocol
// over the given byte streams (a spawned worker's stdin/stdout) until
// EOF, shutdown, or ctx cancellation.
func ServeCampaignWorker(ctx context.Context, r io.Reader, w io.Writer, opts CampaignWorkerOptions) error {
	return coord.ServeWorker(ctx, r, w, opts)
}

// ConnectCampaignWorker dials a coordinator over TCP and serves the
// worker protocol on the connection.
func ConnectCampaignWorker(ctx context.Context, addr string, opts CampaignWorkerOptions) error {
	return coord.Connect(ctx, addr, opts)
}

// CampaignProtoVersion is the coordinator/worker wire protocol
// version; mismatched workers are dropped at the handshake.
const CampaignProtoVersion = coord.ProtoVersion

// --- Variance engineering ---

// PairedCampaign accumulates per-scenario metric pairs from two
// campaigns generated from the same ScenarioSpec seed — which replay
// identical failure draws, scenario by scenario — and summarises their
// difference. Feed it from the two campaigns'
// OnResult callbacks via ObserveBase/ObserveOther, keyed by scenario
// index; only indices observed on both sides enter the summary.
type PairedCampaign = campaign.Paired

// PairedCampaignSummary is the paired-difference summary: sample
// count, mean delta with a paired-t 95% CI half-width, and the
// delta's p50/p95 with an order-statistic CI on the p95. Because the
// paired deltas cancel the shared scenario-to-scenario variance, the
// CIs are far narrower than two independent campaigns' at equal
// budget.
type PairedCampaignSummary = campaign.PairedSummary

// NewPairedCampaign returns a paired accumulator for campaigns of n
// scenarios.
func NewPairedCampaign(n int) *PairedCampaign { return campaign.NewPaired(n) }

// CampaignStopMonitor evaluates the CI-driven early-stop rule
// (CampaignConfig.StopTol) over a campaign's serialised shard states,
// observed in shard order. Single-process runs and the distributed
// coordinator feed it the same state sequence, so both stop at the
// same scenario and summaries stay bit-identical.
type CampaignStopMonitor = campaign.StopMonitor

// NewCampaignStopMonitor builds the stop monitor for the config, or
// nil (the "never stops" monitor) when StopTol <= 0.
func NewCampaignStopMonitor(cfg CampaignConfig) *CampaignStopMonitor {
	return campaign.NewStopMonitor(cfg)
}

// WeightedQuantileSketch is the deterministic mergeable streaming
// quantile summary every campaign summary is built on. Each sample
// carries a weight — the scenario's importance-sampling likelihood
// ratio under ScenarioSpec.Tilt, 1 otherwise. Count, SumW, Mean, Min
// and Max are exact; quantiles are weighted nearest-rank values, exact
// while the summary holds fewer than 4·k samples and within a rank
// error of 2.56/k of the total weight beyond. Merge and serialisation
// are deterministic — the basis of bit-identical campaign summaries
// across any worker and shard layout.
type WeightedQuantileSketch = sketch.Weighted

// DefaultSketchK is the default sketch compression parameter
// (rank error about 1%), also used by campaign summaries.
const DefaultSketchK = sketch.DefaultK

// NewWeightedQuantileSketch returns an empty weighted sketch with
// compression parameter k (0 selects DefaultSketchK).
func NewWeightedQuantileSketch(k int) *WeightedQuantileSketch { return sketch.NewWeighted(k) }

// NewSeededWeightedQuantileSketch is NewWeightedQuantileSketch with
// compaction coin flips derived from seed; summaries that are merged
// together should share a seed.
func NewSeededWeightedQuantileSketch(k int, seed uint64) *WeightedQuantileSketch {
	return sketch.NewSeededWeighted(k, seed)
}

// BaselineCache memoizes failure-free baseline sink volumes per
// (key, horizon) across campaigns, so sweep cells sharing a setup run
// the baseline simulation once (CampaignConfig.Baselines/BaselineKey).
type BaselineCache = campaign.BaselineCache

// NewBaselineCache returns an empty baseline cache.
func NewBaselineCache() *BaselineCache { return campaign.NewBaselineCache() }

// CampaignEnvSpec describes a reusable campaign environment (topology,
// planner, cluster sizing, domain layout).
type CampaignEnvSpec = campaign.EnvSpec

// CampaignEnv is a reusable campaign environment; its Setup method is
// the CampaignConfig.Setup factory.
type CampaignEnv = campaign.Env

// NewCampaignEnv validates the spec, computes the replication plan and
// fixes the cluster dimensions and domain layout.
func NewCampaignEnv(spec CampaignEnvSpec) (*CampaignEnv, error) { return campaign.NewEnv(spec) }

// PresetTopology generates a named random-topology preset ("small",
// "medium", "large") for campaigns.
func PresetTopology(name string, seed int64) (*Topology, error) {
	return campaign.PresetTopology(name, seed)
}

// --- Random topologies ---

// RandomSpec controls the §VI-C random topology generator.
type RandomSpec = randtopo.Spec

// DefaultRandomSpec returns the paper's baseline random-topology
// specification.
func DefaultRandomSpec(seed int64) RandomSpec { return randtopo.DefaultSpec(seed) }

// GenerateRandom builds a random topology from the spec.
func GenerateRandom(spec RandomSpec) (*Topology, error) { return randtopo.Generate(spec) }
