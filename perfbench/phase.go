package main

import (
	"sort"
	"sync"
	"time"
)

// phaseSlices is how many equal slices a measured phase is cut into. The
// throughput, latency quantiles and CPU cost a run reports are medians over
// the slices, so a burst of outside load on the shared machine moves one
// slice, not the run's figure.
const phaseSlices = 10

// setupRepeats is how many times an untraced run sets its daemons up;
// setup_s is the median.
const setupRepeats = 3

// timeSetups runs setup setupRepeats times, tearing the previous set-up
// down first, reports the median as setup_s and leaves the last one up.
func timeSetups(rep *report, teardown func(), setup func() error) error {
	var setups durations
	for i := 0; i < setupRepeats; i++ {
		teardown()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	rep.set("setup_s", "s", setups.quantile(0.5).Seconds())
	return nil
}

// stamp is one completed request: when it completed, relative to the start
// of the phase, and how long it took.
type stamp struct{ at, lat time.Duration }

// phase is one measured interval of closed-loop load. A sampler reads the
// daemons' CPU time at every slice boundary.
type phase struct {
	ds    []*daemon
	start time.Time
	d     time.Duration
	cpu   [phaseSlices + 1]time.Duration
	err   error
	wg    sync.WaitGroup
}

func startPhase(ds []*daemon, d time.Duration) (*phase, error) {
	ph := &phase{ds: ds, d: d}
	c0, err := cpuAll(ds)
	if err != nil {
		return nil, err
	}
	ph.start = time.Now()
	ph.cpu[0] = c0
	ph.wg.Add(1)
	go func() {
		defer ph.wg.Done()
		for k := 1; k <= phaseSlices; k++ {
			time.Sleep(time.Until(ph.start.Add(ph.step() * time.Duration(k))))
			c, err := cpuAll(ds)
			if err != nil {
				ph.err = err
				return
			}
			ph.cpu[k] = c
		}
	}()
	return ph, nil
}

func (ph *phase) step() time.Duration { return ph.d / phaseSlices }

func (ph *phase) deadline() time.Time { return ph.start.Add(ph.d) }

// stamp records a request that started at t0 and has just completed.
func (ph *phase) stamp(t0 time.Time) stamp {
	now := time.Now()
	return stamp{at: now.Sub(ph.start), lat: now.Sub(t0)}
}

// report waits for the sampler and sets the end-to-end metrics: ops are
// the workload's completed primary requests, lat the latency samples of
// its primary operation.
func (ph *phase) report(rep *report, ops, lat []stamp) error {
	ph.wg.Wait()
	if ph.err != nil {
		return ph.err
	}
	var rps, p50, p99, cpu []float64
	step := ph.step()
	for k := 0; k < phaseSlices; k++ {
		lo, hi := step*time.Duration(k), step*time.Duration(k+1)
		n := 0
		for _, s := range ops {
			if s.at >= lo && s.at < hi {
				n++
			}
		}
		var ls durations
		for _, s := range lat {
			if s.at >= lo && s.at < hi {
				ls = append(ls, s.lat)
			}
		}
		rps = append(rps, float64(n)/step.Seconds())
		p50 = append(p50, ms(ls.quantile(0.5)))
		p99 = append(p99, ms(ls.quantile(0.99)))
		cpu = append(cpu, us(ph.cpu[k+1]-ph.cpu[k])/float64(max(n, 1)))
	}
	var all durations
	for _, s := range lat {
		all = append(all, s.lat)
	}
	var rss int64
	for _, d := range ph.ds {
		r, err := d.peakRSS()
		if err != nil {
			return err
		}
		rss += r
	}
	rep.set("throughput_rps", "1/s", median(rps))
	rep.set("latency_p50_ms", "ms", median(p50))
	rep.set("latency_p99_ms", "ms", median(p99))
	rep.set("server_cpu_us_per_req", "us", median(cpu))
	rep.set("rss_peak_mib", "MiB", float64(rss)/(1<<20))
	rep.note("latency samples %d, of which %d beyond p99; slice medians over %d slices of %v",
		len(all), len(all)-int(float64(len(all))*0.99), phaseSlices, step)
	return nil
}

// median returns the nearest-rank median of v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}
