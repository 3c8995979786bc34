package experiments

import (
	"fmt"

	"powermanna/internal/comm"
	"powermanna/internal/stats"
)

// commSystems are the Figure 9-12 contenders.
func commSystems() []comm.System {
	return []comm.System{comm.NewPowerMANNA(), comm.BIP(), comm.FM()}
}

// bandwidths evaluates bw for every (system, size) pair, one task per
// pair, and returns out[i][k] in MB/s for systems[i] at sizes[k]. Each
// function of also runs as one more task of the same pool. The tasks
// share the systems: comm.System's bandwidth methods are safe for
// concurrent use.
func bandwidths(systems []comm.System, sizes []int, bw func(comm.System, int) float64, also ...func()) [][]float64 {
	out := make([][]float64, len(systems))
	for i := range out {
		out[i] = make([]float64, len(sizes))
	}
	points := len(systems) * len(sizes)
	each(points+len(also), func(j int) {
		if j >= points {
			also[j-points]()
			return
		}
		i, k := j/len(sizes), j%len(sizes)
		out[i][k] = bw(systems[i], sizes[k]) / 1e6
	})
	return out
}

// Fig9 measures one-way latencies.
func Fig9(Options) Result {
	fig := &stats.Figure{
		Title:  "Figure 9: one-way latency",
		XLabel: "message size [B]",
		YLabel: "latency [us]",
		LogX:   true,
	}
	at8 := map[string]float64{}
	for _, s := range commSystems() {
		series := stats.Series{Name: s.Name()}
		for _, n := range comm.Sizes(4, 4096) {
			series.Add(float64(n), s.OneWayLatency(n).Micros())
		}
		fig.Add(series)
		at8[s.Name()] = s.OneWayLatency(8).Micros()
	}
	notes := []string{}
	for _, k := range sortedKeys(at8) {
		notes = append(notes, fmt.Sprintf("%s: 8 bytes in %.2f us", k, at8[k]))
	}
	return Result{
		ID:          "fig9",
		Description: "one-way latency, PowerMANNA vs BIP and FM",
		Expected:    "PowerMANNA clearly outperforms for short messages: 8 bytes in 2.75 us vs 6.4 us (BIP) and 9.2 us (FM)",
		Figure:      fig,
		Notes:       notes,
	}
}

// Fig10 measures the per-message gap at saturation.
func Fig10(Options) Result {
	fig := &stats.Figure{
		Title:  "Figure 10: message-sending time at the network saturation point",
		XLabel: "message size [B]",
		YLabel: "gap [us]",
		LogX:   true,
	}
	for _, s := range commSystems() {
		series := stats.Series{Name: s.Name()}
		for _, n := range comm.Sizes(4, 4096) {
			series.Add(float64(n), s.Gap(n).Micros())
		}
		fig.Add(series)
	}
	return Result{
		ID:          "fig10",
		Description: "LogP gap along message size",
		Expected:    "PowerMANNA's minimal setup keeps the small-message gap well below BIP and FM; at large sizes the 60 MB/s link dominates",
		Figure:      fig,
	}
}

// Fig11 measures unidirectional bandwidth.
func Fig11(Options) Result {
	fig := &stats.Figure{
		Title:  "Figure 11: unidirectional bandwidth",
		XLabel: "message size [B]",
		YLabel: "MB/s",
		LogX:   true,
	}
	crossNote := ""
	var pmLarge, bipLarge float64
	systems, sizes := commSystems(), comm.Sizes(4, 256<<10)
	mbps := bandwidths(systems, sizes, comm.System.UniBandwidth)
	for i, s := range systems {
		series := stats.Series{Name: s.Name()}
		for k, n := range sizes {
			bw := mbps[i][k]
			series.Add(float64(n), bw)
			if n == 256<<10 {
				switch s.Name() {
				case "PowerMANNA":
					pmLarge = bw
				case "BIP":
					bipLarge = bw
				}
			}
		}
		fig.Add(series)
	}
	if pmLarge < bipLarge {
		crossNote = fmt.Sprintf("large messages: PowerMANNA %.1f MB/s limited by its link vs BIP %.1f MB/s — matches the paper", pmLarge, bipLarge)
	} else {
		crossNote = fmt.Sprintf("MISMATCH: PowerMANNA %.1f not below BIP %.1f at 256 KB", pmLarge, bipLarge)
	}
	return Result{
		ID:          "fig11",
		Description: "unidirectional stream bandwidth",
		Expected:    "PowerMANNA saturates at the 60 MB/s single-link limit of its network technology; BIP reaches ~126 MB/s on Myrinet",
		Figure:      fig,
		Notes:       []string{crossNote},
	}
}

// Fig12 measures simultaneous bidirectional bandwidth.
func Fig12(Options) Result {
	fig := &stats.Figure{
		Title:  "Figure 12: simultaneous bidirectional bandwidth",
		XLabel: "message size [B]",
		YLabel: "MB/s (total)",
		LogX:   true,
	}
	systems, sizes := commSystems(), comm.Sizes(4, 256<<10)
	var pmBi, pmUni float64
	mbps := bandwidths(systems, sizes, comm.System.BiBandwidth, func() {
		pmUni = comm.NewPowerMANNA().UniBandwidth(256<<10) / 1e6
	})
	for i, s := range systems {
		series := stats.Series{Name: s.Name()}
		for k, n := range sizes {
			series.Add(float64(n), mbps[i][k])
			if n == 256<<10 && s.Name() == "PowerMANNA" {
				pmBi = mbps[i][k]
			}
		}
		fig.Add(series)
	}
	return Result{
		ID:          "fig12",
		Description: "both nodes sending and receiving simultaneously",
		Expected:    "PowerMANNA falls short of 2x unidirectional: the driver must turn around after at most 4 cache lines because of the small link-interface FIFOs",
		Figure:      fig,
		Notes: []string{
			fmt.Sprintf("PowerMANNA at 256 KB: bidirectional %.1f MB/s vs 2 x unidirectional %.1f MB/s (%.0f%% of ideal)",
				pmBi, 2*pmUni, 100*pmBi/(2*pmUni)),
		},
	}
}

// FIFOSweep is the ablation the paper's Section 5.2 suggests: "This
// overhead could be significantly reduced if larger FIFO buffers were
// implemented."
func FIFOSweep(Options) Result {
	fig := &stats.Figure{
		Title:  "Ablation: bidirectional bandwidth vs link-interface FIFO size",
		XLabel: "FIFO size [cache lines]",
		YLabel: "MB/s (total)",
	}
	series := stats.Series{Name: "PowerMANNA bi @64KB"}
	var small, large float64
	for _, linesN := range []int{2, 4, 8, 16, 32, 64} {
		p := comm.DefaultPMParams()
		p.FIFOBytes = linesN * 64
		bw := comm.NewPowerMANNAWith(p).BiBandwidth(64<<10) / 1e6
		series.Add(float64(linesN), bw)
		if linesN == 4 {
			small = bw
		}
		if linesN == 64 {
			large = bw
		}
	}
	fig.Add(series)
	return Result{
		ID:          "fifosweep",
		Description: "link-interface FIFO depth ablation (hardware has 4 lines)",
		Expected:    "larger FIFOs amortize the direction-switch overhead and recover most of the lost bidirectional bandwidth",
		Figure:      fig,
		Notes: []string{
			fmt.Sprintf("4-line FIFO: %.1f MB/s; 64-line FIFO: %.1f MB/s (%.1fx)", small, large, large/small),
		},
	}
}

// DualLink exercises the duplicated network: both links striped for user
// traffic, the configuration Section 4 names as future work.
func DualLink(Options) Result {
	fig := &stats.Figure{
		Title:  "Ablation: single vs dual (duplicated) network links",
		XLabel: "message size [B]",
		YLabel: "MB/s",
		LogX:   true,
	}
	single := comm.NewPowerMANNA()
	p := comm.DefaultPMParams()
	p.Links = 2
	dual := comm.NewPowerMANNAWith(p)
	for _, s := range []comm.System{single, dual} {
		series := stats.Series{Name: s.Name() + " uni"}
		for _, n := range comm.Sizes(64, 256<<10) {
			series.Add(float64(n), s.UniBandwidth(n)/1e6)
		}
		fig.Add(series)
	}
	s1 := single.UniBandwidth(256<<10) / 1e6
	s2 := dual.UniBandwidth(256<<10) / 1e6
	return Result{
		ID:          "duallink",
		Description: "striping user traffic over both links of the duplicated network",
		Expected:    "two links double the stream bandwidth toward the 240 MB/s total the paper quotes for a duplicated dual-link connection",
		Figure:      fig,
		Notes: []string{
			fmt.Sprintf("256 KB stream: single %.1f MB/s, dual %.1f MB/s", s1, s2),
		},
	}
}
