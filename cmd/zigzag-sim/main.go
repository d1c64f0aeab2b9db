// Command zigzag-sim runs one of the canonical scenarios and prints its
// timeline, the coordination outcome and the justifying zigzag pattern.
// With -sweep it instead runs the full scenario registry as a
// scenario × policy × seed grid across a worker pool and prints the
// aggregates — as an aligned table by default, or as CSV/JSON via -format
// for feeding figure scripts.
//
// Usage:
//
//	zigzag-sim [-scenario name] [-policy eager|lazy|random|heavy] [-seed n]
//	           [-x n] [-coord-m m] [-timeline n] [-list] [-dump file]
//	           [-engine offline|rebuild|online|shared] [-kind late|early|mixed]
//	           [-faults crash|link|deadline|chaos]
//	           [-cpuprofile file] [-memprofile file]
//	zigzag-sim -sweep [-seeds n] [-workers n] [-x n] [-coord-m m] [-live]
//	           [-sweep-faults] [-format table|csv|json]
//	           [-sweep-x 0,2,4] [-sweep-scale 1,1.5,2] [-sweep-rand 8:12:1,12:20:2]
//	           [-cpuprofile file] [-memprofile file]
//
// -engine picks the Protocol2 knowledge engine for a single-scenario run:
// the default "offline" keeps the recorded-run analysis, while rebuild,
// online and shared execute the scenario's tasks live — one agent per
// task — on the chosen engine and cross-check every act against the
// offline optimum. -kind overrides every task's coordination kind for such
// a run (late, early, or the default mixed which keeps the scenario's own
// kinds) — handy for driving the Early-kind reverse query cache end to
// end. -coord-m raises the registry's multi-agent family
// ceiling (coord-m8/coord-m16 enter at 8/16). With -sweep, -live adds the
// registry's multi-agent scenarios as live grid cells driven through ONE
// shared knowledge engine per network, plus the long-horizon heavy-tail
// coord-heavy-m family. -sweep-faults (with -sweep -live)
// additionally opens the chaos axis: the coord-faulty family — seeded crash,
// link-failure, deadline and chaos plans injected per cell — whose agents
// must degrade gracefully (typed errors, withheld actions) rather than act
// early or panic. The other -sweep-* flags add grid
// axes beyond the registry: task-separation overrides, channel-bound
// scaling factors and extra random-topology shapes (procs:extra:seed).
// -faults injects a seeded fault plan of the named family into a
// single-scenario -engine run; the offline cross-check then becomes a
// safety audit (every act must satisfy its task on the faulted run) and the
// report lists the injected violations and degraded agents.
// -cpuprofile/-memprofile write pprof profiles of whatever the invocation
// ran, so the hot-path claims in DESIGN.md are reproducible with
// `go tool pprof`.
//
// Exit codes: 0 on success, 2 for a bad flag or flag value, 1 for a runtime
// failure (a failed sweep cell, an agent disagreeing with the offline
// optimum, an early act under -faults).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
	"github.com/clockless/zigzag/internal/trace"
	"github.com/clockless/zigzag/internal/viz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zigzag-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("scenario", "figure2b", "scenario to run")
		policy   = fs.String("policy", "lazy", "delivery policy: eager, lazy, random or heavy (heavy-tailed)")
		seed     = fs.Int64("seed", 1, "seed for the random policy")
		x        = fs.Int("x", 0, "override the task's required separation (0 keeps the default)")
		coordM   = fs.Int("coord-m", scenario.DefaultCoordM, "multi-agent family ceiling: include coord-m scenarios up to this many agents")
		engine   = fs.String("engine", "offline", "Protocol2 engine for a single-scenario run: offline (recorded-run analysis), rebuild, online or shared (live execution)")
		kind     = fs.String("kind", "mixed", "with -engine: override every task's kind — late, early or mixed (keep scenario defaults)")
		timeline = fs.Int("timeline", 32, "timeline window to render")
		list     = fs.Bool("list", false, "list scenarios and exit")
		dump     = fs.String("dump", "", "write the recorded run as JSON to this file")
		doSweep  = fs.Bool("sweep", false, "sweep the full registry under every policy and print the aggregate table")
		seeds    = fs.Int("seeds", 8, "number of seeds per (scenario, policy) cell in a sweep")
		workers  = fs.Int("workers", 0, "sweep worker count (0 = GOMAXPROCS)")
		format   = fs.String("format", "table", "sweep output format: table, csv or json")
		doLive   = fs.Bool("live", false, "with -sweep: add the multi-agent scenarios as live grid cells (Protocol2 agents on one shared engine per network)")
		doFaults = fs.Bool("sweep-faults", false, "with -sweep -live: add the coord-faulty chaos family (seeded crash/link/deadline/chaos plans per cell)")
		faultFam = fs.String("faults", "", "with -engine: inject a seeded fault plan of this family (crash, link, deadline or chaos) into the run")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf  = fs.String("memprofile", "", "write a heap profile at exit to this file (inspect with go tool pprof)")
		sweepX   = fs.String("sweep-x", "", "comma-separated task-separation overrides as a sweep axis (e.g. 0,2,4; overrides -x for the sweep)")
		sweepSc  = fs.String("sweep-scale", "", "comma-separated channel-bound scaling factors as a sweep axis (e.g. 1,1.5,2)")
		sweepRnd = fs.String("sweep-rand", "", "extra random topologies as procs:extra:seed triples, comma-separated (e.g. 8:12:1,12:20:2)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	all := scenario.RegistrySized(*x, *coordM)
	if *list {
		for _, n := range scenario.Names(all) {
			fmt.Fprintf(stdout, "%-9s %s\n", n, all[n].Description)
		}
		return 0
	}
	switch *engine {
	case "offline", "rebuild", "online", "shared":
	default:
		fmt.Fprintf(stderr, "unknown engine %q (want offline, rebuild, online or shared)\n", *engine)
		return 2
	}
	switch *kind {
	case "late", "early", "mixed":
	default:
		fmt.Fprintf(stderr, "unknown kind %q (want late, early or mixed)\n", *kind)
		return 2
	}
	if *doSweep && *engine != "offline" {
		fmt.Fprintln(stderr, "-engine applies to single-scenario runs; use -live for engine-backed sweep cells")
		return 2
	}
	if !*doSweep && *doLive {
		fmt.Fprintln(stderr, "-live needs -sweep (single scenarios run live via -engine)")
		return 2
	}
	if *doSweep && *seeds < 1 {
		fmt.Fprintf(stderr, "-sweep needs at least one seed, got -seeds %d\n", *seeds)
		return 2
	}
	if *doFaults && (!*doSweep || !*doLive) {
		fmt.Fprintln(stderr, "-sweep-faults needs -sweep -live (faulted cells are live-only)")
		return 2
	}
	if *faultFam != "" {
		if *doSweep {
			fmt.Fprintln(stderr, "-faults applies to single-scenario -engine runs; use -sweep-faults for the chaos grid")
			return 2
		}
		if *engine == "offline" {
			fmt.Fprintln(stderr, "-faults needs a live engine (-engine rebuild|online|shared): the offline analysis assumes an honest run")
			return 2
		}
		if !faults.ValidFamily(*faultFam) {
			fmt.Fprintf(stderr, "unknown fault family %q (want crash, link, deadline or chaos)\n", *faultFam)
			return 2
		}
	}
	// Profiling wraps everything that does real work.
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer stopProfiles()
	if *doSweep {
		if !sweep.ValidFormat(*format) {
			fmt.Fprintf(stderr, "unknown output format %q (want table, csv or json)\n", *format)
			return 2
		}
		axes, err := parseAxes(*x, *coordM, *sweepX, *sweepSc, *sweepRnd)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := runSweep(stdout, stderr, axes, *seeds, *workers, *format, *doLive, *doFaults); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	sc, ok := all[*name]
	if !ok {
		fmt.Fprintf(stderr, "unknown scenario %q (use -list)\n", *name)
		return 2
	}
	var pol sim.Policy
	switch *policy {
	case "eager":
		pol = sim.Eager{}
	case "lazy":
		pol = sim.Lazy{}
	case "random":
		pol = sim.NewRandom(*seed)
	case "heavy":
		pol = sim.NewHeavyTail(*seed)
	default:
		fmt.Fprintf(stderr, "unknown policy %q\n", *policy)
		return 2
	}
	if *engine != "offline" {
		if err := runLiveScenario(stdout, sc, pol, *engine, *kind, *timeline, *dump, *faultFam, *seed); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	r, err := sc.Simulate(pol)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := trace.WriteRun(f, r); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "run written to %s\n", *dump)
	}
	fmt.Fprintf(stdout, "scenario %s under policy %s\n%s\n\n", sc.Name, pol.Name(), sc.Description)
	names := make(map[model.ProcID]string, len(sc.Roles))
	for role, p := range sc.Roles {
		names[p] = role
	}
	fmt.Fprintln(stdout, viz.Timeline(r, names, model.Time(*timeline)))

	if sc.Task == nil {
		return 0
	}
	fmt.Fprintf(stdout, "task: %s with x=%d (A=%s, B=%s, C=%s)\n",
		sc.Task.Kind, sc.Task.X, names[sc.Task.A], names[sc.Task.B], names[sc.Task.C])
	out, err := sc.Task.RunOptimal(r)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !out.Acted {
		fmt.Fprintln(stdout, "Protocol 2: B cannot act — the required bound is not knowable on this network.")
		return 0
	}
	fmt.Fprintf(stdout, "Protocol 2: B acted at t=%d (a at t=%d, gap %+d), knowing a bound of %d\n",
		out.ActTime, out.ATime, out.Gap, out.KnownBound)
	fmt.Fprintln(stdout, "justifying sigma-visible zigzag:")
	fmt.Fprint(stdout, viz.Zigzag(r.Net(), &out.Witness.Zigzag))
	if err := out.Witness.VerifyVisible(r); err != nil {
		fmt.Fprintf(stderr, "witness verification failed: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "witness verified ✔")

	ext, err := bounds.NewExtended(r, out.ActNode)
	if err == nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, viz.ExtendedStats(ext))
	}

	base, err := sc.Task.RunBaseline(r)
	if err == nil {
		if base.Acted {
			fmt.Fprintf(stdout, "asynchronous baseline: acted at t=%d (%+d vs optimal)\n",
				base.ActTime, base.ActTime-out.ActTime)
		} else {
			fmt.Fprintln(stdout, "asynchronous baseline: never acts on this network")
		}
	}
	return 0
}

// startProfiles begins CPU profiling and arranges a heap profile at stop,
// per the -cpuprofile/-memprofile flags (empty means off). The returned stop
// function must run before the process exits for either file to be
// complete.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}, nil
}

// runLiveScenario executes a single scenario through the live environment
// with one Protocol2 agent per coordination task on the chosen engine —
// rebuild (fresh extended graph per state), online (each agent's handle on
// its own private one-handle run) or shared (one per-network knowledge
// engine, per-run standing graph, per-agent frontier handles) — and cross-checks every agent's act
// against the offline optimum on the recorded run, which dump (when
// non-empty) archives as JSON exactly like the offline path does.
//
// With faultFam a seeded fault plan is injected. The offline-optimum
// comparison would then falsely flag every degraded agent (an omniscient
// analyzer of the recording is not bound by in-run detection), so the
// cross-check becomes the chaos safety audit instead: every act an agent
// DID perform must satisfy its task on the faulted run that actually
// happened, and the report lists the injected violations, crashed
// processes and degraded agents. run has validated engine and kind.
func runLiveScenario(stdout io.Writer, sc *scenario.Scenario, pol sim.Policy, engine, kind string, timeline int, dump, faultFam string, seed int64) error {
	tasks := sc.TaskList()
	if len(tasks) == 0 {
		return fmt.Errorf("scenario %s poses no coordination task; -engine needs one (try coord-m4)", sc.Name)
	}
	switch kind {
	case "late":
		for i := range tasks {
			tasks[i].Kind = coord.Late
		}
	case "early":
		for i := range tasks {
			tasks[i].Kind = coord.Early
		}
	}
	agents, agentMap := live.NewTaskAgents(tasks)
	cfg := live.Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: pol, Externals: sc.Externals,
		Agents: agentMap,
	}
	if faultFam != "" {
		plan, err := faults.NewPlan(faultFam, sc.Net, sc.Horizon, seed)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}
	switch engine {
	case "rebuild":
		for _, a := range agents {
			a.Rebuild = true
		}
	case "online":
		// Protocol2's default: each agent's handle on a private one-handle
		// run.
	case "shared":
		cfg.Engine = bounds.NewNetworkEngine(sc.Net)
	}
	res, err := live.Replay(cfg)
	if err != nil {
		return err
	}
	if dump != "" {
		f, err := os.Create(dump)
		if err != nil {
			return err
		}
		if err := trace.WriteRun(f, res.Run); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run written to %s\n", dump)
	}
	faulted := ""
	if faultFam != "" {
		faulted = fmt.Sprintf(", faults=%s-s%d", faultFam, seed)
	}
	fmt.Fprintf(stdout, "scenario %s under policy %s — live, engine=%s%s, %d agent(s)\n%s\n\n",
		sc.Name, pol.Name(), engine, faulted, len(tasks), sc.Description)
	names := make(map[model.ProcID]string, len(sc.Roles))
	for role, p := range sc.Roles {
		names[p] = role
	}
	fmt.Fprintln(stdout, viz.Timeline(res.Run, names, model.Time(timeline)))
	acts := make(map[string]live.Action, len(res.Actions))
	for _, a := range res.Actions {
		acts[a.Label] = a
	}
	if faultFam != "" {
		return reportFaultedRun(stdout, tasks, agents, res, acts)
	}
	disagree := 0
	for i := range tasks {
		if err := agents[i].Err(); err != nil {
			return fmt.Errorf("agent %s: %w", live.TaskLabel(i), err)
		}
		offline, err := tasks[i].RunOptimal(res.Run)
		if err != nil {
			return fmt.Errorf("task %d offline analysis: %w", i+1, err)
		}
		act, acted := acts[live.TaskLabel(i)]
		agrees := acted == offline.Acted && (!acted || (act.Node == offline.ActNode && act.Time == offline.ActTime))
		verdict := "agrees with offline ✔"
		if !agrees {
			verdict = fmt.Sprintf("DISAGREES with offline (acted=%v t=%d)", offline.Acted, offline.ActTime)
			disagree++
		}
		if acted {
			fmt.Fprintf(stdout, "agent %s (%s, x=%d, B=%d): acted at t=%d — %s\n",
				live.TaskLabel(i), tasks[i].Kind, tasks[i].X, tasks[i].B, act.Time, verdict)
		} else {
			fmt.Fprintf(stdout, "agent %s (%s, x=%d, B=%d): never acted — %s\n",
				live.TaskLabel(i), tasks[i].Kind, tasks[i].X, tasks[i].B, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d agent(s) disagree with the offline analysis", disagree)
	}
	return nil
}

// reportFaultedRun prints the chaos report of a fault-injected -engine run
// and audits safety: every act performed must satisfy its task on the
// faulted run (coord.Task.AuditAct), every internal agent error is fatal,
// and the injected violations, crashed processes and degraded agents are
// listed. Degraded agents withholding their action is the CORRECT outcome,
// not a failure.
func reportFaultedRun(stdout io.Writer, tasks []coord.Task, agents []*live.Protocol2, res *live.Result, acts map[string]live.Action) error {
	early := 0
	for i := range tasks {
		label := live.TaskLabel(i)
		if err := agents[i].Err(); err != nil {
			return fmt.Errorf("agent %s: %w", label, err)
		}
		act, acted := acts[label]
		switch {
		case acted:
			verdict := "sound ✔"
			if err := tasks[i].AuditAct(res.Run, act.Time); err != nil {
				verdict = fmt.Sprintf("EARLY: %v", err)
				early++
			}
			fmt.Fprintf(stdout, "agent %s (%s, x=%d, B=%d): acted at t=%d — %s\n",
				label, tasks[i].Kind, tasks[i].X, tasks[i].B, act.Time, verdict)
		case agents[i].Degraded():
			fmt.Fprintf(stdout, "agent %s (%s, x=%d, B=%d): degraded, action withheld — %v\n",
				label, tasks[i].Kind, tasks[i].X, tasks[i].B, agents[i].DegradeReason())
		default:
			fmt.Fprintf(stdout, "agent %s (%s, x=%d, B=%d): never acted (condition not knowable before the horizon)\n",
				label, tasks[i].Kind, tasks[i].X, tasks[i].B)
		}
	}
	fmt.Fprintf(stdout, "\nfaults: %d violation(s) injected, %d process(es) crashed, %d agent(s) degraded\n",
		len(res.Violations), len(res.Crashed), len(res.Degraded))
	for _, v := range res.Violations {
		fmt.Fprintf(stdout, "  %v\n", v)
	}
	if early > 0 {
		return fmt.Errorf("%d agent(s) acted early on the faulted run — SAFETY VIOLATION", early)
	}
	return nil
}

// parseAxes assembles the sweep's scenario axes from the CLI flags: the
// x list (falling back to the single -x override), the bound-scale list
// and the extra random shapes, plus the multi-agent family ceiling.
func parseAxes(x, coordM int, xsFlag, scalesFlag, randFlag string) (sweep.Axes, error) {
	axes := sweep.Axes{MaxCoordM: coordM}
	if xsFlag == "" {
		axes.Xs = []int{x}
	} else {
		for _, tok := range strings.Split(xsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return axes, fmt.Errorf("bad -sweep-x entry %q: %v", tok, err)
			}
			axes.Xs = append(axes.Xs, v)
		}
	}
	if scalesFlag != "" {
		for _, tok := range strings.Split(scalesFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return axes, fmt.Errorf("bad -sweep-scale entry %q: %v", tok, err)
			}
			axes.Scales = append(axes.Scales, v)
		}
	}
	if randFlag != "" {
		for _, tok := range strings.Split(randFlag, ",") {
			parts := strings.Split(strings.TrimSpace(tok), ":")
			if len(parts) != 3 {
				return axes, fmt.Errorf("bad -sweep-rand entry %q (want procs:extra:seed)", tok)
			}
			procs, err1 := strconv.Atoi(parts[0])
			extra, err2 := strconv.Atoi(parts[1])
			seed, err3 := strconv.ParseInt(parts[2], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return axes, fmt.Errorf("bad -sweep-rand entry %q (want procs:extra:seed)", tok)
			}
			axes.Random = append(axes.Random, sweep.RandomShape{Procs: procs, Extra: extra, Seed: seed})
		}
	}
	return axes, nil
}

// engineFooter renders the sweep's engine report as one line naming every
// bounds.StatFields counter, in table order.
func engineFooter(report sweep.EngineReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "engines: %d network(s);", report.Networks)
	for _, f := range bounds.StatFields {
		fmt.Fprintf(&b, " %s=%d", f.Name, f.Of(report.Stats))
	}
	return b.String()
}

// runSweep expands the axes into the scenario × policy × seed grid —
// optionally adding the multi-agent scenarios as live cells driven through
// one knowledge engine per network — and prints the aggregates in
// deterministic order, in the requested format. Live cells also include
// the long-horizon heavy-tail coord-heavy-m family. doFaults adds the
// coord-faulty chaos family: live-only cells that inject a seeded fault
// plan per cell and must come back with typed violations and degraded
// agents, never a cell error. The banner is only
// printed for the human-readable table so that csv/json output can be piped
// straight into figure scripts.
func runSweep(stdout, stderr io.Writer, axes sweep.Axes, seeds, workers int, format string, doLive, doFaults bool) error {
	scs, err := axes.Scenarios()
	if err != nil {
		return err
	}
	grid := sweep.Grid{
		Scenarios: scs,
		Policies:  sweep.DefaultPolicies(),
		Seeds:     make([]int64, seeds),
		Workers:   workers,
	}
	if doLive {
		// The multi-agent scenarios (the only ones carrying concurrent
		// Tasks) form the live dimension: every policy and seed of one
		// topology shares a single bounds.NetworkEngine inside Grid.Run.
		for _, sc := range scs {
			if len(sc.Tasks) > 0 {
				grid.Live = append(grid.Live, sc)
			}
		}
		if len(grid.Live) == 0 {
			return fmt.Errorf("sweep: -live found no multi-agent scenarios in the grid")
		}
		// The long-horizon heavy-tail coordination family.
		grid.Live = append(grid.Live, scenario.ReplayFamily()...)
		if doFaults {
			// The chaos axis: every cell of these scenarios derives a fault
			// plan from (family, seed). Faulted cells bypass the prefix
			// cache.
			grid.Live = append(grid.Live, scenario.FaultyFamily()...)
		}
	}
	for i := range grid.Seeds {
		grid.Seeds[i] = int64(i + 1)
	}
	results, report, err := grid.RunWithEngines()
	if err != nil {
		return err
	}
	if format == "" || format == "table" {
		fmt.Fprintf(stdout, "sweep: (%d sim + %d live scenarios) x %d policies x %d seeds = %d runs\n\n",
			len(grid.Scenarios), len(grid.Live), len(grid.Policies), len(grid.Seeds), grid.Size())
	}
	if err := sweep.Write(stdout, format, sweep.Summarize(results)); err != nil {
		return err
	}
	if (format == "" || format == "table") && report.Networks > 0 {
		fmt.Fprintf(stdout, "\n%s\n", engineFooter(report))
	}
	if format == "" || format == "table" {
		violations, degraded, crashed := 0, 0, 0
		for _, res := range results {
			violations += res.Violations
			degraded += res.Degraded
			crashed += res.Crashed
		}
		if violations+degraded+crashed > 0 {
			fmt.Fprintf(stdout, "faults: %d violation(s) injected, %d process(es) crashed, %d agent(s) degraded — all typed, zero panics\n",
				violations, crashed, degraded)
		}
	}
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
			fmt.Fprintf(stderr, "cell %s/%s seed=%d: %v\n", res.Scenario, res.Policy, res.Seed, res.Err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cells failed", failed, len(results))
	}
	return nil
}
