package mpl

import (
	"bytes"
	"fmt"
	"testing"

	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// pinPayload is four FIFOs' worth of bytes: large enough to take the
// beyond-FIFO branch of the sender-free rule and a multi-line drain on
// the receive side, which no golden workload reaches (they all send at
// most one FIFO).
const pinPayload = 1024

// pinRounds is the number of ping-pong round trips in the pin tests.
const pinRounds = 3

// TestLargePingPongPinned pins both ranks' clocks after a 1 KB
// two-rank ping-pong on Cluster8, on each world. Nothing else is in
// flight, so the two executors agree; the constants were captured from
// the two independent World and PRank send/receive paths. Rank 1 ends
// on a send, so its clock pins the beyond-FIFO sender-free rule; every
// send it makes starts after a 16-line drain.
func TestLargePingPongPinned(t *testing.T) {
	ping := make([]byte, pinPayload)
	for i := range ping {
		ping[i] = byte(i * 7)
	}
	const want0, want1 = sim.Time(131840382), sim.Time(124229110)

	w := NewWorld(topo.Cluster8())
	for i := 0; i < pinRounds; i++ {
		if err := w.Send(0, 1, i, ping); err != nil {
			t.Fatal(err)
		}
		b, err := w.Recv(1, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Send(1, 0, 100+i, b); err != nil {
			t.Fatal(err)
		}
		if b, err = w.Recv(0, 1, 100+i); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, ping) {
			t.Fatalf("World round %d: echo differs", i)
		}
	}
	if w.Now(0) != want0 || w.Now(1) != want1 {
		t.Errorf("World clocks = %v, %v; want %v, %v", w.Now(0), w.Now(1), want0, want1)
	}

	pw, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]sim.Time, pw.Ranks())
	err = pw.Run(func(r *PRank) error {
		defer func() { clocks[r.Rank()] = r.Now() }()
		for i := 0; i < pinRounds; i++ {
			switch r.Rank() {
			case 0:
				if err := r.Send(1, i, ping); err != nil {
					return err
				}
				b, err := r.Recv(1, 100+i)
				if err != nil {
					return err
				}
				if !bytes.Equal(b, ping) {
					return fmt.Errorf("round %d: echo differs", i)
				}
			case 1:
				b, err := r.Recv(0, i)
				if err != nil {
					return err
				}
				if err := r.Send(0, 100+i, b); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clocks[0] != want0 || clocks[1] != want1 {
		t.Errorf("PWorld clocks = %v, %v; want %v, %v", clocks[0], clocks[1], want0, want1)
	}
}
