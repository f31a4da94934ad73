package gpusim

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestSweepContextMatchesSerial: the model is deterministic, so a
// parallel sweep must reproduce the serial reference path result for
// result, enumeration order included.
func TestSweepContextMatchesSerial(t *testing.T) {
	for _, dev := range []*Device{NewK40c(), NewP100()} {
		w := MatMulWorkload{N: 10240, Products: 8}
		serial, err := dev.SweepContext(context.Background(), w, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := dev.SweepContext(context.Background(), w, SweepOptions{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != len(par) {
			t.Fatalf("%s: %d vs %d results", dev.Spec.Name, len(serial), len(par))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Fatalf("%s: result %d differs between 1 and 8 workers:\n%+v\n%+v",
					dev.Spec.Name, i, serial[i], par[i])
			}
		}
	}
}

func TestSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewP100().SweepContext(ctx, MatMulWorkload{N: 10240, Products: 8}, SweepOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepContextProgress(t *testing.T) {
	dev := NewP100()
	w := MatMulWorkload{N: 4096, Products: 4}
	configs, err := dev.EnumerateConfigs(w)
	if err != nil {
		t.Fatal(err)
	}
	var ticks atomic.Int64
	_, err = dev.SweepContext(context.Background(), w, SweepOptions{
		Workers: 4,
		Progress: func(done, total int) {
			ticks.Add(1)
			if total != len(configs) || done < 1 || done > total {
				t.Errorf("progress (%d, %d) out of range", done, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(ticks.Load()) != len(configs) {
		t.Errorf("%d progress ticks, want %d", ticks.Load(), len(configs))
	}
}

func TestClockSweepContextMatchesSerial(t *testing.T) {
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 8}
	c := MatMulConfig{BS: 24, G: 1, R: 8}
	serial, levels1, err := d.ClockSweepContext(context.Background(), w, c, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, levels2, err := d.ClockSweepContext(context.Background(), w, c, SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels1) != len(levels2) || len(serial) != len(par) {
		t.Fatal("level counts differ")
	}
	for i := range serial {
		if levels1[i] != levels2[i] || !reflect.DeepEqual(serial[i], par[i]) {
			t.Fatalf("clock level %d differs between serial and parallel", i)
		}
	}
}

func TestClockSweepContextError(t *testing.T) {
	d := NewP100()
	// Invalid configuration: the error must surface from the pool.
	_, _, err := d.ClockSweepContext(context.Background(), MatMulWorkload{N: 1024, Products: 8},
		MatMulConfig{BS: 64, G: 1, R: 8}, SweepOptions{Workers: 4})
	if err == nil {
		t.Fatal("invalid config: want error")
	}
}
