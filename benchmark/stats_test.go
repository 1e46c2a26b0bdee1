package main

import (
	"reflect"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]uint32, 100)
	for i := range hundred {
		hundred[i] = uint32(i + 1)
	}
	cases := []struct {
		sample []uint32
		p      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]uint32{7}, 0.99, 7},
		{[]uint32{10, 20, 30}, 0.50, 20}, // ceil(1.5) = 2nd value
		{[]uint32{10, 20, 30}, 0.99, 30}, // ceil(2.97) = 3rd value
		{[]uint32{10, 20, 30, 40}, 0.50, 20},
		{hundred, 0.50, 50},
		{hundred, 0.99, 99},
		{hundred, 0.999, 100},
		{hundred, 1, 100},
	}
	for _, c := range cases {
		if got := percentile(c.sample, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sample, c.p, got, c.want)
		}
	}
}

// The gated throughput and latency figures are the median of a run's
// per-slice values.
func TestMedianOfSlices(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{100, 101, 99, 5000, 98}, 100}, // one disturbed slice does not move it
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("median reordered its argument: %v → %v", in, c.xs)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "message", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "wire.write", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "syscall", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "core.deliver", Start: 50, End: 90},
		{ID: 4, Parent: 3, Name: "handler", Start: 60, End: 65},
		{ID: 5, Parent: 0, Name: "wire.write", Start: 92, End: 97}, // same name twice: summed
	}
	got := map[string]int64{}
	selfTimes(spans, got)
	want := map[string]int64{
		"message":      100 - 30 - 40 - 5,
		"wire.write":   (30 - 10) + 5,
		"syscall":      10,
		"core.deliver": 40 - 5,
		"handler":      5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}
