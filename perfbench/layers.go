package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"powermanna/internal/bus"
	"powermanna/internal/cache"
	"powermanna/internal/dispatch"
	"powermanna/internal/heat"
	"powermanna/internal/hint"
	"powermanna/internal/machine"
	"powermanna/internal/matmult"
	"powermanna/internal/mem"
	"powermanna/internal/metrics"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/node"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/telemetry"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
	"powermanna/internal/xbar"
)

// cost is the host cost of one operation, as medians over batches.
type cost struct{ ns, allocs, bytes float64 }

// minBatches keeps a median behind every per-layer number when the
// budget is short.
const minBatches = 3

// bench runs batch (n operations) until budget is spent, with prep run
// untimed before each batch, and returns the median per-operation cost.
func bench(budget time.Duration, n int, prep, batch func()) cost {
	var ns, allocs, bytes []float64
	deadline := time.Now().Add(budget)
	for len(ns) < minBatches || time.Now().Before(deadline) {
		if prep != nil {
			prep()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		batch()
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return cost{median(ns), median(allocs), median(bytes)}
}

// layerEnv carries inputs one layer group produces for a later one.
type layerEnv struct {
	seed    int64
	rng     *rand.Rand
	sys     *topo.Topology // shared System256 for groups that only read it
	traffic *metrics.Registry
}

// pairs draws n (src, dst) pairs with src != dst.
func (e *layerEnv) pairs(n int) [][2]int {
	nodes := e.sys.Nodes()
	out := make([][2]int, n)
	for i := range out {
		s, d := e.rng.Intn(nodes), e.rng.Intn(nodes-1)
		if d >= s {
			d++
		}
		out[i] = [2]int{s, d}
	}
	return out
}

// layerGroup is one set of microbenchmarks over one layer; each group runs
// inside its own span in a traced run.
type layerGroup struct {
	name string
	run  func(e *layerEnv, budget time.Duration, out map[string]float64) error
}

var layerGroups = []layerGroup{
	{"topo", benchTopo},
	{"sim", benchSim},
	{"xbar", benchXbar},
	{"netsim", benchNetsim},
	{"netsim.part", benchPartSend},
	{"psim", benchPsim},
	{"mpl", benchMPL},
	{"heat", benchHeat},
	{"traffic", benchTraffic},
	{"metrics", benchMetrics},
	{"telemetry", benchTelemetry},
	{"node", benchNode},
	{"cache", benchCache},
	{"bus", benchBus},
	{"dispatch", benchDispatch},
	{"matmult", benchMatmult},
	{"hint", benchHint},
}

// measureLayers runs every layer group for an equal share of budget and
// returns the per-layer metrics; a group that fails counts one failed
// check, and a metric no group produced counts as failed too.
func measureLayers(seed int64, budget time.Duration, tr *tracer, log io.Writer) (map[string]float64, tally) {
	env := &layerEnv{seed: seed, rng: rand.New(rand.NewSource(seed)), sys: topo.System256()}
	out := map[string]float64{}
	var t tally
	share := budget / time.Duration(len(layerGroups))
	for _, g := range layerGroups {
		t.attempted++
		tr.startPass()
		end := tr.begin("layer " + g.name)
		err := g.run(env, share, out)
		end()
		if err != nil {
			t.failed++
			fmt.Fprintf(log, "FAIL layer %s: %v\n", g.name, err)
		}
	}
	for _, m := range perLayer {
		if _, ok := out[m.name]; !ok && m.name != "trace_overhead_pct" {
			t.attempted++
			t.failed++
			fmt.Fprintf(log, "FAIL layer metric %s not measured\n", m.name)
		}
	}
	return out, t
}

func benchTopo(e *layerEnv, budget time.Duration, out map[string]float64) error {
	qs := e.pairs(256)
	var t *topo.Topology
	var err error
	c := bench(budget*3/4, 2*len(qs), func() { t = topo.System256() }, func() {
		for _, q := range qs {
			for plane := 0; plane < 2; plane++ {
				if _, rerr := t.Route(q[0], q[1], plane); rerr != nil {
					err = rerr
				}
			}
		}
	})
	if err != nil {
		return err
	}
	out["topo.route_us"] = c.ns / 1e3
	out["topo.route_kb"] = c.bytes / 1024
	c = bench(budget/4, 1, func() { t = topo.System256() }, func() {
		if _, perr := t.Partition(2); perr != nil {
			err = perr
		}
	})
	out["topo.partition_us"] = c.ns / 1e3
	return err
}

// ticker counts handler calls; its method value is bound once, so
// scheduling it allocates nothing per event.
type ticker struct{ n int }

func (t *ticker) tick() { t.n++ }

func benchSim(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 1024
	offs := make([]sim.Time, n)
	for i := range offs {
		offs[i] = sim.Time(e.rng.Int63n(int64(sim.Millisecond)))
	}
	s := sim.NewScheduler()
	var tk ticker
	fn := tk.tick
	c := bench(budget, n, nil, func() {
		base := s.Now()
		for _, o := range offs {
			s.At(base+o, fn)
		}
		for s.Step() {
		}
	})
	out["sim.event_ns"] = c.ns
	if want := n * minBatches; tk.n < want {
		return fmt.Errorf("sim: %d events ran, want at least %d", tk.n, want)
	}
	return nil
}

func benchXbar(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 1024
	outs := make([]int, n)
	for i := range outs {
		outs[i] = e.rng.Intn(4) // four hot outputs: requests queue behind each other
	}
	x := xbar.New("bench")
	at := sim.Time(0)
	c := bench(budget, n, nil, func() {
		for _, o := range outs {
			x.Connect(at, o, 500*sim.Nanosecond)
			at += 50 * sim.Nanosecond
		}
	})
	out["xbar.connect_ns"] = c.ns
	return nil
}

// threeXbarPaths routes seeded pairs in different clusters, whose paths
// cross three crossbars (leaf, central, leaf).
func threeXbarPaths(e *layerEnv, n int) ([]topo.Path, error) {
	var paths []topo.Path
	for len(paths) < n {
		q := e.pairs(1)[0]
		p, err := e.sys.Route(q[0], q[1], e.rng.Intn(2))
		if err != nil {
			return nil, err
		}
		if len(p.RouteBytes) == 3 {
			paths = append(paths, p)
		}
	}
	return paths, nil
}

func benchNetsim(e *layerEnv, budget time.Duration, out map[string]float64) error {
	paths, err := threeXbarPaths(e, 256)
	if err != nil {
		return err
	}
	net := netsim.New(e.sys)
	at := sim.Time(0)
	c := bench(budget/3, len(paths), nil, func() {
		for _, p := range paths {
			//pmlint:allow layering measures the raw wormhole send the transport layer wraps
			if _, serr := net.Send(at, p, 256); serr != nil {
				err = serr
			}
			at += 2 * sim.Microsecond
		}
	})
	if err != nil {
		return err
	}
	out["netsim.send_ns"] = c.ns
	out["netsim.send_allocs"] = c.allocs

	dsts := make([]int, 256)
	src := e.rng.Intn(e.sys.Nodes())
	for i := range dsts {
		dsts[i] = (src + 1 + e.rng.Intn(e.sys.Nodes()-1)) % e.sys.Nodes()
	}
	sendAll := func(tp *netsim.Transport, at *sim.Time) {
		for _, d := range dsts {
			dl, serr := tp.Send(*at, d, 256)
			if serr == nil && dl.Failed {
				serr = fmt.Errorf("transport send %d->%d failed", src, d)
			}
			if serr != nil {
				err = serr
			}
			*at += 2 * sim.Microsecond
		}
	}
	for _, v := range []struct {
		metric string
		cut    bool
	}{{"netsim.transport_send_ns", false}, {"netsim.failover_send_ns", true}} {
		net := netsim.New(e.sys)
		if v.cut {
			net.CutWire(src, topo.NetworkA, 0)
		}
		tp := net.MustTransport(src, netsim.DefaultFailover())
		at := sim.Time(0)
		sendAll(tp, &at) // warm the route and plane-down caches
		out[v.metric] = bench(budget/3, len(dsts), nil, func() { sendAll(tp, &at) }).ns
	}
	return err
}

// partSender sends one message per event on a partitioned network and
// records when it completed, so the next send starts after it.
type partSender struct {
	pn       *netsim.PartNetwork
	src, dst int
	at, done sim.Time
	err      error
	fire     func()
	record   func(netsim.Delivery)
}

func newPartSender(pn *netsim.PartNetwork) *partSender {
	s := &partSender{pn: pn}
	s.fire, s.record = s.send, s.onDone
	return s
}

func (s *partSender) send() {
	if err := s.pn.SendAsync(s.src, s.dst, 256, nil, s.at, s.record); err != nil {
		s.err = err
	}
}

func (s *partSender) onDone(d netsim.Delivery) {
	if d.Failed {
		s.err = fmt.Errorf("partitioned send %d->%d failed", s.src, s.dst)
	}
	s.done = d.Done
}

func benchPartSend(e *layerEnv, budget time.Duration, out map[string]float64) error {
	qs := e.pairs(64)
	for _, shards := range []int{1, 2} {
		pn, err := netsim.NewPartitioned(e.sys, shards, netsim.DefaultFailover())
		if err != nil {
			return err
		}
		s := newPartSender(pn)
		c := bench(budget/2, len(qs), nil, func() {
			for _, q := range qs {
				s.src, s.dst, s.at = q[0], q[1], s.done+sim.Microsecond
				pn.Shard(pn.ShardOf(s.src)).At(s.at, s.fire)
				pn.Run()
			}
		})
		if s.err != nil {
			return s.err
		}
		out[fmt.Sprintf("netsim.part_send_ns.s%d", shards)] = c.ns
		if shards == 1 {
			out["netsim.part_send_allocs"] = c.allocs
		}
	}
	return nil
}

// pingPong bounces one event between the two shards of an engine, one
// cross-shard Post per lookahead window.
type pingPong struct {
	e      *psim.Engine
	left   int
	at     [2]func()
	hopped int
}

func newPingPong(e *psim.Engine) *pingPong {
	p := &pingPong{e: e}
	p.at = [2]func(){func() { p.bounce(0) }, func() { p.bounce(1) }}
	return p
}

func (p *pingPong) bounce(s int) {
	p.hopped++
	if p.left == 0 {
		return
	}
	p.left--
	p.e.Post(s, 1-s, p.e.Shard(s).Now()+p.e.Lookahead(), p.at[1-s])
}

// localChain runs a chain of shard-local events, several per window.
type localChain struct {
	sh   *psim.Shard
	step sim.Time
	left int
	next func()
}

func (c *localChain) fire() {
	if c.left > 0 {
		c.left--
		c.sh.After(c.step, c.next)
	}
}

// engineNow is the latest clock of the engine's shards.
func engineNow(e *psim.Engine) sim.Time {
	now := sim.Time(0)
	for i := 0; i < e.Shards(); i++ {
		now = max(now, e.Shard(i).Now())
	}
	return now
}

func benchPsim(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 256
	eng := psim.NewEngine(2, psim.DefaultLookahead())
	p := newPingPong(eng)
	c := bench(budget/2, n, nil, func() {
		p.left = n
		eng.Shard(0).At(engineNow(eng)+eng.Lookahead(), p.at[0])
		eng.Run()
	})
	out["psim.round_ns"] = c.ns
	out["psim.round_allocs"] = c.allocs
	if p.hopped < n*minBatches {
		return fmt.Errorf("psim: %d hops, want at least %d", p.hopped, n*minBatches)
	}

	eng = psim.NewEngine(2, psim.DefaultLookahead())
	chains := make([]*localChain, 2)
	for i := range chains {
		ch := &localChain{sh: eng.Shard(i), step: eng.Lookahead() / 8}
		ch.next = ch.fire
		chains[i] = ch
	}
	const perShard = 512
	c = bench(budget/2, 2*perShard, nil, func() {
		start := engineNow(eng) + eng.Lookahead()
		for _, ch := range chains {
			ch.left = perShard - 1
			ch.sh.At(start, ch.next)
		}
		eng.Run()
	})
	out["psim.local_event_ns"] = c.ns
	return nil
}

func benchMPL(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const trips = 200
	q := e.pairs(1)[0]
	a, b := q[0], q[1]
	payload := make([]byte, 64)
	pingPongRank := func(r *mpl.PRank) error {
		for i := 0; i < trips; i++ {
			switch r.Rank() {
			case a:
				if err := r.Send(b, i, payload); err != nil {
					return err
				}
				if _, err := r.Recv(b, i); err != nil {
					return err
				}
			case b:
				if _, err := r.Recv(a, i); err != nil {
					return err
				}
				if err := r.Send(a, i, payload); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var w *mpl.PWorld
	var err error
	prep := func() {
		if w, err = mpl.NewPWorld(e.sys, 1); err != nil {
			panic(err) // System256 at one shard always partitions
		}
	}
	c := bench(budget/3, 2*trips, prep, func() {
		if rerr := w.Run(pingPongRank); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	out["mpl.pworld_msg_ns"] = c.ns
	out["mpl.pworld_msg_allocs"] = c.allocs

	world := mpl.NewWorld(e.sys)
	c = bench(budget/3, 2*trips, world.Reset, func() {
		for i := 0; i < trips && err == nil; i++ {
			err = world.Send(a, b, i, payload)
			if err == nil {
				_, err = world.Recv(b, a, i)
			}
			if err == nil {
				err = world.Send(b, a, i, payload)
			}
			if err == nil {
				_, err = world.Recv(a, b, i)
			}
		}
	})
	if err != nil {
		return err
	}
	out["mpl.world_msg_ns"] = c.ns

	const rounds = 8
	want := float64(w.Ranks()) * float64(w.Ranks()+1) / 2
	allreduce := func(r *mpl.PRank) error {
		for round := 0; round < rounds; round++ {
			got, err := r.AllReduce([]float64{float64(r.Rank() + 1)}, round)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != want {
				return fmt.Errorf("allreduce round %d = %v, want %v", round, got, want)
			}
		}
		return nil
	}
	c = bench(budget/3, rounds, prep, func() {
		if rerr := w.Run(allreduce); rerr != nil {
			err = rerr
		}
	})
	out["mpl.allreduce_us"] = c.ns / 1e3
	return err
}

func benchHeat(e *layerEnv, budget time.Duration, out map[string]float64) error {
	cfg := heat.DefaultConfig(24*e.sys.Nodes(), 30)
	want, err := heat.RunSerial(cfg)
	if err != nil {
		return err
	}
	check := func(model string, r heat.Result, makespan *float64) error {
		for i := range want {
			if r.Field[i] != want[i] {
				return fmt.Errorf("heat over %s diverges from serial at cell %d", model, i)
			}
		}
		us := r.Makespan.Micros()
		if *makespan != 0 && *makespan != us {
			return fmt.Errorf("heat over %s: makespan %v then %v", model, *makespan, us)
		}
		*makespan = us
		return nil
	}
	var partSpan, worldSpan float64
	var pw *mpl.PWorld
	c := bench(budget/2, 1, func() {
		if pw, err = mpl.NewPWorld(e.sys, 1); err != nil {
			panic(err) // System256 at one shard always partitions
		}
	}, func() {
		r, rerr := heat.RunPart(pw, cfg)
		if rerr == nil {
			rerr = check("PWorld", r, &partSpan)
		}
		if rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	out["heat.runpart_ms"] = c.ns / 1e6
	out["heat.pworld_makespan_us"] = partSpan

	var w *mpl.World
	c = bench(budget/2, 1, func() { w = mpl.NewWorld(e.sys) }, func() {
		r, rerr := heat.Run(w, cfg)
		if rerr == nil {
			rerr = check("World", r, &worldSpan)
		}
		if rerr != nil {
			err = rerr
		}
	})
	out["heat.run_ms"] = c.ns / 1e6
	out["heat.world_makespan_us"] = worldSpan
	return err
}

func benchTraffic(e *layerEnv, budget time.Duration, out map[string]float64) error {
	var news, runs, allocs []float64
	var steps uint64
	deadline := time.Now().Add(budget)
	for len(runs) < minBatches || time.Now().Before(deadline) {
		t := topo.System256()
		runtime.GC()
		start := time.Now()
		eng, err := traffic.New(traffic.DefaultMix(), traffic.Options{Seed: e.seed, Topology: t})
		news = append(news, time.Since(start).Seconds()*1e3)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		res, err := eng.Run()
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		if err := conserved(res); err != nil {
			return err
		}
		offered := int64(0)
		for _, ts := range res.Tenants {
			offered += ts.Offered
		}
		runs = append(runs, float64(d.Nanoseconds())/1e3/float64(offered))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(offered))
		s := eng.PartNetwork().Engine().Steps()
		if steps != 0 && s != steps {
			return fmt.Errorf("traffic: %d psim steps, then %d", steps, s)
		}
		steps = s
		e.traffic = res.Registry
	}
	out["traffic.new_ms"] = median(news)
	out["traffic.msg_us"] = median(runs)
	out["traffic.msg_allocs"] = median(allocs)
	out["traffic.events"] = float64(steps)
	return nil
}

func benchMetrics(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 4096
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = e.rng.Int63n(1 << 20)
	}
	h := metrics.NewRegistry().Histogram("bench", metrics.ExpBuckets(1, 2, 24))
	c := bench(budget/2, n, nil, func() {
		for _, v := range vals {
			h.Observe(v)
		}
	})
	out["metrics.observe_ns"] = c.ns
	if e.traffic == nil {
		return fmt.Errorf("metrics: no traffic registry to merge")
	}
	c = bench(budget/2, 1, nil, func() { metrics.NewRegistry().MergeFrom(e.traffic) })
	out["metrics.merge_us"] = c.ns / 1e3
	return nil
}

func benchTelemetry(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 4096
	horizon := traffic.DefaultHorizon
	ats := make([]sim.Time, n)
	lats := make([]sim.Time, n)
	for i := range ats {
		ats[i] = sim.Time(e.rng.Int63n(int64(horizon)))
		lats[i] = sim.Time(e.rng.Int63n(int64(20 * sim.Microsecond)))
	}
	s := telemetry.NewSampler(horizon, telemetry.AutoWindow(horizon))
	series, hist := s.Series("bench.offered"), s.TimeHist("bench.latency")
	c := bench(budget, 2*n, nil, func() {
		for i, at := range ats {
			series.Inc(at)
			hist.ObserveTime(at, lats[i])
		}
	})
	out["telemetry.observe_ns"] = c.ns
	return nil
}

func benchNode(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 4096
	p := node.New(machine.PowerMANNA()).Proc(0)
	l1 := make([]uint64, n)
	for i := range l1 {
		l1[i] = uint64(e.rng.Intn(16<<10)) &^ 7 // half of the 32 KB L1D
	}
	c := bench(budget/2, n, nil, func() {
		for _, a := range l1 {
			p.Access(a, false)
		}
	})
	out["node.access_ns.l1"] = c.ns
	// A stride of 65 lines over 64 MB defeats L1, L2 and the page reach.
	base := uint64(e.rng.Intn(1<<10)) * 64
	i := uint64(0)
	c = bench(budget/2, n, nil, func() {
		for k := 0; k < n; k++ {
			p.Access(base+(i*65*64)%(64<<20), false)
			i++
		}
	})
	out["node.access_ns.mem"] = c.ns
	return nil
}

func benchCache(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 4096
	c := cache.New(machine.PowerMANNA().L1D)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(e.rng.Intn(16 << 10))
		if c.Access(addrs[i], false) == cache.Miss {
			c.Fill(addrs[i], cache.Exclusive)
		}
	}
	hits := 0
	r := bench(budget, n, nil, func() {
		for _, a := range addrs {
			if c.Access(a, false) == cache.Hit {
				hits++
			}
		}
	})
	out["cache.access_ns"] = r.ns
	if hits < n*minBatches {
		return fmt.Errorf("cache: %d hits on a warm working set, want at least %d", hits, n*minBatches)
	}
	return nil
}

func benchBus(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 4096
	cfg := machine.PowerMANNA()
	f := bus.NewSwitched(cfg.Bus, mem.New(cfg.Mem))
	line := uint64(e.rng.Intn(1<<16)) * 64
	at := sim.Time(0)
	c := bench(budget, n, nil, func() {
		for k := 0; k < n; k++ {
			at = f.FillLine(at, line, bus.FromMemory)
			line += 64
		}
	})
	out["bus.fill_ns"] = c.ns
	return nil
}

func benchDispatch(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const n = 1024
	d := dispatch.New(dispatch.DefaultConfig(), nil)
	line := uint64(e.rng.Intn(1<<16)) * 64
	drained := true
	c := bench(budget, n, nil, func() {
		for k := 0; k < n; k++ {
			d.Submit(k&1, dispatch.Read, line)
			line += 64
			if _, ok := d.RunUntilIdle(1 << 20); !ok {
				drained = false
			}
		}
	})
	out["dispatch.txn_ns"] = c.ns
	if !drained {
		return fmt.Errorf("dispatch: a transaction did not drain")
	}
	return nil
}

func benchMatmult(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const size = 65
	nd := node.New(machine.PowerMANNA())
	want := matmult.Reference(size)
	var err error
	c := bench(budget, size*size*size, nil, func() {
		if r := matmult.Run(nd, size, matmult.Naive, 1); r.Checksum != want {
			err = fmt.Errorf("matmult checksum %v, want %v", r.Checksum, want)
		}
	})
	out["matmult.msim_iters_per_s"] = 1e3 / c.ns // (1e9/ns) per s, in millions
	return err
}

func benchHint(e *layerEnv, budget time.Duration, out map[string]float64) error {
	const intervals = 20_000
	nd := node.New(machine.PowerMANNA())
	var err error
	c := bench(budget, intervals, nil, func() {
		if r := hint.Run(nd, hint.Double, intervals); !(r.Lower <= r.Upper) {
			err = fmt.Errorf("hint bounds inverted: %v > %v", r.Lower, r.Upper)
		}
	})
	out["hint.ksplits_per_s"] = 1e6 / c.ns // (1e9/ns) per s, in thousands
	return err
}
