package core

import (
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/obs"
)

// trainerRaven is a small Raven, deciding by the score cache, whose
// fits go to a trainer of its own, in a unit-size cache of 30 objects.
// hook, if not nil, runs at the start of every fit, on the trainer's
// goroutine.
func trainerRaven(t *testing.T, hook func()) (*Raven, *cache.Sharded, *obs.RavenObs) {
	t.Helper()
	tr := nn.NewTrainer()
	t.Cleanup(tr.Close)
	ro := &obs.RavenObs{}
	r := New(Config{
		TrainWindow:     1000,
		MaxTrainObjects: 60,
		Net:             nn.Config{Hidden: 4, MLPHidden: 6, K: 2},
		Train:           nn.TrainConfig{MaxEpochs: 2, Patience: 1},
		ScoreCache:      true,
		Seed:            7,
		Obs:             ro,
		Trainer:         tr,
		fitHook:         hook,
	})
	return r, cache.New(30, r), ro
}

// serve sends the requests at times from..to-1 over 200 keys.
func serve(c *cache.Sharded, from, to int64) {
	for ts := from; ts < to; ts++ {
		c.Handle(cache.Request{Time: ts, Key: cache.Key(ts*7919) % 200, Size: 1})
	}
}

// waitFit waits until the fit r handed to its trainer has finished.
func waitFit(t *testing.T, r *Raven) {
	t.Helper()
	if r.pending == nil {
		t.Fatal("no fit was handed to the trainer")
	}
	deadline := time.Now().Add(time.Minute)
	for !r.pending.done.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the handed-off fit did not finish within a minute")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeldFitKeepsServing: no request waits on training. With a fit
// held in flight on the trainer, the shard serves on with the model it
// has: 12 000 requests complete, and each of the 12 windows that close
// meanwhile is skipped — a record with Skipped set and one
// raven.train_skipped count each, its data dropped and health left
// where it was. Once the fit is released and has finished, the next
// request installs it: the version moves and health is Healthy again.
func TestHeldFitKeepsServing(t *testing.T) {
	var hold bool // written before the fit is handed off, read by the trainer after
	held, release := make(chan struct{}), make(chan struct{})
	r, c, ro := trainerRaven(t, func() {
		if hold {
			close(held)
			<-release
		}
	})

	serve(c, 0, 1001) // the request at 1000 closes the first window
	waitFit(t, r)
	serve(c, 1001, 1002) // the next request installs it
	if r.Net() == nil || len(r.TrainStats) != 1 {
		t.Fatalf("after the first fit: net %v, %d records; want a net and 1", r.Net() != nil, len(r.TrainStats))
	}
	v := r.Net().Version
	r.guardTripped("test") // a health state the skips must leave alone
	hold = true

	serve(c, 1002, 2001) // closes the second window: its fit is held
	<-held
	serve(c, 2001, 14001)
	if got := r.Health(); got != Degraded {
		t.Errorf("health %v while the fit is held, want degraded: a skip must not move it", got)
	}
	if r.Net().Version != v {
		t.Errorf("version %d while the fit is held, want %d", r.Net().Version, v)
	}
	const skips = 12
	if got := ro.TrainSkipped.Load(); got != skips {
		t.Errorf("raven.train_skipped = %d, want %d", got, skips)
	}
	if len(r.TrainStats) != 1+skips {
		t.Fatalf("%d records, want %d", len(r.TrainStats), 1+skips)
	}
	for i, rec := range r.TrainStats[1:] {
		if !rec.Skipped || rec.Objects == 0 || rec.Result.Epochs != 0 {
			t.Errorf("record %d = %+v, want a skipped window with its sample counted", i+1, rec)
		}
	}

	close(release)
	waitFit(t, r)
	serve(c, 14001, 14002)
	if r.pending != nil || r.Net().Version != v+1 {
		t.Fatalf("after the release: pending %v, version %d; want the fit installed at version %d", r.pending != nil, r.Net().Version, v+1)
	}
	if got := r.Health(); got != Healthy {
		t.Errorf("health %v after the install, want healthy", got)
	}
	if last := r.TrainStats[len(r.TrainStats)-1]; last.Skipped || last.WindowEnd != 2000 || last.Result.Epochs == 0 {
		t.Errorf("last record %+v, want the fit of the window that closed at 2000", last)
	}
}

// TestHandedOffFitInstallsOnNextRequest: with no traffic after the
// hand-off, the fit still finishes on the trainer, and nothing changes
// in the policy until the next request installs it.
func TestHandedOffFitInstallsOnNextRequest(t *testing.T) {
	r, c, ro := trainerRaven(t, nil)
	serve(c, 0, 1001)
	waitFit(t, r)
	if r.Net() != nil || len(r.TrainStats) != 0 || ro.TrainEpochs.Load() != 0 {
		t.Fatal("the fit was installed without a request")
	}
	serve(c, 1001, 1002)
	if r.Net() == nil || r.Net().Version != 1 || len(r.TrainStats) != 1 || r.pending != nil {
		t.Fatalf("the next request did not install the fit: %d records", len(r.TrainStats))
	}
	if ro.TrainEpochs.Load() == 0 || r.Health() != Healthy {
		t.Errorf("after the install: %d epochs counted, health %v", ro.TrainEpochs.Load(), r.Health())
	}
}
