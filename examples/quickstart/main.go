// Quickstart: one serverless database with a daily usage pattern, driven
// through the ProRP lifecycle by hand.
//
// It shows the core loop an embedding system implements: feed Login/Idle
// events with real timestamps, honor WakeAt timers, run the fleet's
// proactive resume operation periodically, and apply the returned
// allocate/reclaim decisions. Watch the policy learn the 9:00 login and
// start pre-warming resources ahead of it.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"prorp"
)

func main() {
	opts := prorp.DefaultOptions()
	opts.History = 7 * 24 * time.Hour // learn from one week of history

	fleet, err := prorp.NewShardedFleet(opts)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
	if err := fleet.Create(1, start); err != nil {
		log.Fatal(err)
	}
	state, _ := fleet.State(1)
	fmt.Printf("day 0: database created at %s, state %s\n",
		start.Format("15:04"), state)

	// Replay ten days of a daily routine: work 9:00-12:00 and 15:00-17:00.
	// Each morning the control plane's proactive resume operation runs
	// (production cadence: every minute; here once at 08:55 suffices).
	for d := 0; d < 10; d++ {
		base := start.Add(time.Duration(d) * 24 * time.Hour).Truncate(24 * time.Hour)
		if d > 0 {
			for _, pw := range fleet.RunResumeOp(base.Add(8*time.Hour + 55*time.Minute)) {
				fmt.Printf("day %d: 08:55 control plane pre-warms database %d\n", d, pw.ID)
			}
			decision, _ := fleet.Login(1, base.Add(9*time.Hour))
			fmt.Printf("day %d: 09:00 login  -> %-14s (resources were %s)\n",
				d, decision.Event, availability(decision))
		}
		fleet.Idle(1, base.Add(12*time.Hour))
		fleet.Login(1, base.Add(15*time.Hour))
		decision, _ := fleet.Idle(1, base.Add(17*time.Hour))
		fmt.Printf("day %d: 17:00 logout -> %-14s", d, decision.Event)
		if start2, _, ok, _ := fleet.NextPredictedActivity(1); ok {
			fmt.Printf(" next activity predicted %s", start2.Format("Mon 15:04"))
		}
		fmt.Println()
	}

	// Overnight the database is physically paused; the control plane's
	// resume operation (run here once a minute, as in production) pre-warms
	// it ahead of the predicted 9:00 login.
	state, _ = fleet.State(1)
	history, _ := fleet.History(1)
	fmt.Printf("\nstate overnight: %s (history: %d login/logout events)\n",
		state, len(history))

	day10 := start.Add(10 * 24 * time.Hour).Truncate(24 * time.Hour)
	for t := day10.Add(8 * time.Hour); t.Before(day10.Add(10 * time.Hour)); t = t.Add(time.Minute) {
		for _, pw := range fleet.RunResumeOp(t) {
			fmt.Printf("%s: control plane pre-warms database %d (allocate=%v)\n",
				t.Format("15:04"), pw.ID, pw.Decision.Allocate)
		}
		if t.Equal(day10.Add(9 * time.Hour)) {
			decision, _ := fleet.Login(1, t)
			fmt.Printf("%s: customer logs in -> %s, from prewarm: %v\n",
				t.Format("15:04"), decision.Event, decision.FromPrewarm)
			return
		}
	}
}

func availability(d prorp.Decision) string {
	if d.Event == prorp.EventResumeCold {
		return "UNAVAILABLE (reactive resume)"
	}
	return "available"
}
