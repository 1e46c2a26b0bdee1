package main

import (
	"encoding/json"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The box this runs on is a 2-vCPU share of a bigger host, and its speed
// has two moods that last minutes: with the sibling hardware threads busy,
// every figure — CPU per delivery, throughput, latency — is 20–25 % worse
// than with them idle, for whole runs at a time. No amount of work inside
// one run averages that out. So each run also times a fixed kernel that
// uses nothing from this repository, right beside each measured slice, and
// the gated time and rate figures are scaled to what they would be at the
// kernel's reference speed. A change to the program cannot move the kernel;
// a change of the box's mood moves both and cancels.
//
// The kernel is ordinary Go server work — encoding/json round trips of a
// small document (allocation, branches, memory) and one loopback TCP write
// and read per iteration (syscalls) — on every CPU at once, as the measured
// phases are.

// calRefNS is the kernel's typical time per iteration on the box the
// benchmark was defined on. Scaled figures are "as if the kernel took this
// long", so on that box they read like unscaled ones.
const calRefNS = 32000

// calIters sizes one kernel burst at about 10 ms: short enough to slip
// between 100 ms chunks of a measured phase, so that the kernel samples the
// same stretch of time the phase does.
const calIters = 250

type calDoc struct {
	Name    string             `json:"name"`
	Seq     uint64             `json:"seq"`
	Tags    []string           `json:"tags"`
	Values  []float64          `json:"values"`
	Members []calMember        `json:"members"`
	Extra   map[string]float64 `json:"extra"`
}

type calMember struct {
	Info   string `json:"info"`
	ID     int    `json:"id"`
	Source bool   `json:"source"`
	Sink   bool   `json:"sink"`
}

type calLane struct {
	a, b net.Conn
	doc  calDoc
	msg  [64]byte
}

// calibrator owns one kernel lane per CPU.
type calibrator struct {
	lanes []*calLane
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	for i := 0; i < runtime.NumCPU(); i++ {
		a, b, err := tcpPair()
		if err != nil {
			c.close()
			return nil, err
		}
		l := &calLane{a: a, b: b, doc: calDoc{
			Name: "calibration", Tags: []string{"alpha", "beta", "gamma", "delta"},
			Values: []float64{1.5, 2.25, 3.125, 4.0625, 5.03125, 6, 7, 8},
			Extra:  map[string]float64{"x": 1, "y": 2, "z": 3},
		}}
		for j := 0; j < 8; j++ {
			l.doc.Members = append(l.doc.Members, calMember{Info: "tcp://node-00000.rack-00:00000", ID: j, Source: j%2 == 0, Sink: j%3 == 0})
		}
		c.lanes = append(c.lanes, l)
	}
	return c, nil
}

func (c *calibrator) close() {
	for _, l := range c.lanes {
		_ = l.a.Close()
		_ = l.b.Close()
	}
}

// step is one kernel iteration.
func (l *calLane) step(i int64) error {
	l.doc.Seq = uint64(i)
	b, err := json.Marshal(&l.doc)
	if err != nil {
		return err
	}
	var back calDoc
	if err := json.Unmarshal(b, &back); err != nil {
		return err
	}
	if _, err := l.a.Write(l.msg[:]); err != nil {
		return err
	}
	_, err = io.ReadFull(l.b, l.msg[:])
	return err
}

// measure runs one burst of the kernel and returns the wall time per
// iteration per lane, and the process CPU time per iteration. The two part
// ways when something else inside the VM wants the CPUs: wall time grows,
// CPU time does not — exactly as the measured system's throughput and its
// CPU per delivery do. The lanes draw iterations from one shared counter:
// when one CPU stalls the other keeps going, as the scheduler lets the
// measured system's goroutines do.
func (c *calibrator) measure() (wall, cpu time.Duration, err error) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, len(c.lanes))
	)
	total := int64(calIters * len(c.lanes))
	c0, t0 := cpuTime(), time.Now()
	for i, l := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := next.Add(1); n <= total && errs[i] == nil; n = next.Add(1) {
				errs[i] = l.step(n)
			}
		}()
	}
	wg.Wait()
	wall, cpu = time.Since(t0)/calIters, (cpuTime()-c0)/time.Duration(total)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return wall, cpu, nil
}
