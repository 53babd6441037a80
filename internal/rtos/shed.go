package rtos

import (
	"fmt"
	"math"

	"rtdvs/internal/fpx"
)

// This file is the kernel's graceful-degradation layer: load shedding
// under sustained overload.
//
// The overrun watchdog (SetOverrunThreshold) handles *honesty* failures —
// a task whose declared WCET was wrong gets redeclared or loses its own
// guarantee. Under a genuine overload regime (see fault.SustainedOverload)
// that is not enough: the demanded utilization exceeds the platform even
// at f_max, so pinning full speed just burns energy while every task
// misses. The shedder instead drops load explicitly, m-k firm style: it
// watches a sliding window of the global deadline-miss rate — misses, not
// overruns, because an overrun the policy absorbs costs only energy,
// while shedding service that is still meeting its deadlines is never
// graceful — and, after
// TriggerWindows consecutive overloaded windows, demotes the
// lowest-value task to degraded service — only one of its every SkipK
// jobs runs; the rest are skipped at release, never counted as released
// or missed. Skipping whole jobs of the least valuable task trades its
// throughput for the deadlines of everything else, which a frequency
// knob pinned at f_max cannot do.
//
// Recovery is hysteretic: shedding triggers at MissFrac but tasks are
// only restored (most recently shed first) after RecoverWindows
// consecutive windows at or below the strictly lower CalmFrac, so a
// regime hovering near the trigger point cannot make the shedder
// oscillate.

// ShedConfig arms the kernel's load shedder. The zero value disables it.
type ShedConfig struct {
	// Window is the observation-window length in ms (> 0 enables).
	Window float64
	// MissFrac is the overload trigger: a window whose misses/releases
	// ratio reaches it counts as overloaded. Zero selects 0.3.
	MissFrac float64
	// TriggerWindows is how many consecutive overloaded windows shed one
	// task. Zero selects 2.
	TriggerWindows int
	// CalmFrac is the recovery threshold; windows at or below it count
	// as calm. Zero selects MissFrac/2. Must stay below MissFrac — the
	// gap between the two is the hysteresis band.
	CalmFrac float64
	// RecoverWindows is how many consecutive calm windows restore one
	// shed task. Zero selects 4.
	RecoverWindows int
	// SkipK is the m-k firm degradation depth: a shed task runs only one
	// job in every SkipK (invocations with inv % SkipK != 0 are
	// skipped). Zero selects 2.
	SkipK int
	// MaxShed caps concurrently shed tasks. Zero selects "all but one".
	MaxShed int
}

// normalized fills the documented defaults.
func (c ShedConfig) normalized() ShedConfig {
	if c.MissFrac <= 0 {
		c.MissFrac = 0.3
	}
	if c.TriggerWindows <= 0 {
		c.TriggerWindows = 2
	}
	if c.CalmFrac <= 0 {
		c.CalmFrac = c.MissFrac / 2
	}
	if c.RecoverWindows <= 0 {
		c.RecoverWindows = 4
	}
	if c.SkipK < 2 {
		c.SkipK = 2
	}
	return c
}

// SetLoadShedding arms (Window > 0) or disarms (Window <= 0) the load
// shedder. Disarming restores every shed task immediately. The window
// state restarts from the current virtual time either way. A NaN or
// infinite Window, MissFrac or CalmFrac is an error: every range check
// below is a comparison that NaN fails.
func (k *Kernel) SetLoadShedding(cfg ShedConfig) error {
	for _, v := range []float64{cfg.Window, cfg.MissFrac, cfg.CalmFrac} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rtos: shed Window, MissFrac and CalmFrac must be finite, got %v, %v, %v",
				cfg.Window, cfg.MissFrac, cfg.CalmFrac)
		}
	}
	if cfg.Window <= 0 {
		k.shedCfg = ShedConfig{}
		for len(k.shedOrder) > 0 {
			k.unshedOne()
		}
		k.hotWins, k.calmWins = 0, 0
		return nil
	}
	cfg = cfg.normalized()
	if cfg.MissFrac > 1 {
		return fmt.Errorf("rtos: shed MissFrac must lie in (0, 1], got %v", cfg.MissFrac)
	}
	if cfg.CalmFrac >= cfg.MissFrac {
		return fmt.Errorf("rtos: shed CalmFrac %v must stay below MissFrac %v (hysteresis band)", cfg.CalmFrac, cfg.MissFrac)
	}
	k.shedCfg = cfg
	k.hotWins, k.calmWins = 0, 0
	k.resetShedWindow()
	return nil
}

// LoadShedding returns the active (normalized) shed configuration; the
// zero value means the shedder is disarmed.
func (k *Kernel) LoadShedding() ShedConfig { return k.shedCfg }

// ShedActive returns how many tasks are currently shed.
func (k *Kernel) ShedActive() int { return len(k.shedOrder) }

// Sheds returns how many shed demotions the kernel has performed;
// ShedRecoveries how many hysteresis recoveries followed.
func (k *Kernel) Sheds() int { return k.shedsTotal }

// ShedRecoveries returns the number of shed tasks restored by recovery
// hysteresis.
func (k *Kernel) ShedRecoveries() int { return k.unshedsTotal }

// JobsSkipped returns the total jobs dropped by shed tasks.
func (k *Kernel) JobsSkipped() int {
	return k.sumTasks(func(t *ktask) int { return t.skips })
}

// sumTasks folds a per-task counter over the registry. Removed tasks
// leave the registry, so these totals cover live tasks only — matching
// the kernel's own per-task accounting surface.
func (k *Kernel) sumTasks(f func(*ktask) int) int {
	var n int
	for _, t := range k.tasks {
		n += f(t)
	}
	return n
}

// shedSkips reports whether a shed task's invocation inv is one of the
// dropped jobs (m-k firm: only every SkipK-th job runs).
func (k *Kernel) shedSkips(inv int) bool {
	return inv%k.shedCfg.SkipK != 0
}

// resetShedWindow starts a fresh observation window at the current time.
func (k *Kernel) resetShedWindow() {
	k.winEnd = k.now + k.shedCfg.Window
	k.winRel0 = k.sumTasks(func(t *ktask) int { return t.releases })
	k.winMiss0 = len(k.misses)
}

// shedDue reports whether load shedding is on and the observation
// window's end has passed.
//
//rtdvs:hotpath
func (k *Kernel) shedDue() bool { return k.shedCfg.Window > 0 && k.now >= k.winEnd-timeEps }

// evalShedWindow closes the observation window once its end has passed.
// Step calls it at every scheduling point, so windows close at the first
// scheduling event past their nominal end. The test is inlinable and the
// close outlined, so a kernel without load shedding makes no call.
func (k *Kernel) evalShedWindow() {
	if k.shedDue() {
		k.closeShedWindow()
	}
}

// closeShedWindow classifies the window that just ended against the
// hysteresis band, sheds or restores one task when the
// consecutive-window counters reach their thresholds, and opens the next
// window.
func (k *Kernel) closeShedWindow() {
	rel := k.sumTasks(func(t *ktask) int { return t.releases }) - k.winRel0
	bad := len(k.misses) - k.winMiss0
	var ratio float64
	if rel > 0 {
		ratio = float64(bad) / float64(rel)
	}
	switch {
	case ratio >= k.shedCfg.MissFrac-fpx.Tiny:
		k.hotWins++
		k.calmWins = 0
		if k.hotWins >= k.shedCfg.TriggerWindows {
			k.hotWins = 0
			k.shedOne()
		}
	case ratio <= k.shedCfg.CalmFrac+fpx.Tiny:
		k.calmWins++
		k.hotWins = 0
		if k.calmWins >= k.shedCfg.RecoverWindows {
			k.calmWins = 0
			k.unshedOne()
		}
	default:
		// Inside the hysteresis band: neither trigger advances, so a load
		// hovering between CalmFrac and MissFrac holds the current shed
		// set steady instead of oscillating.
		k.hotWins, k.calmWins = 0, 0
	}
	k.resetShedWindow()
}

// shedOne demotes the least valuable unshed periodic task to degraded
// service, respecting the MaxShed cap.
func (k *Kernel) shedOne() {
	maxShed := k.shedCfg.MaxShed
	if maxShed <= 0 {
		maxShed = len(k.tasks) - 1
	}
	if len(k.shedOrder) >= maxShed {
		return
	}
	var best *ktask
	for _, t := range k.tasks {
		if t.shed || t.sporadic {
			continue
		}
		if best == nil || lessValuable(t, best) {
			best = t
		}
	}
	if best == nil {
		return
	}
	best.shed = true
	k.shedsTotal++
	k.shedOrder = append(k.shedOrder, best.id)
	k.logEvent(Event{Kind: EvShed, Task: best.id, Name: best.cfg.Name})
}

// lessValuable orders shed candidates: lowest declared Value first, then
// largest utilization (biggest relief per shed), then highest id — a
// total order, so the choice is deterministic.
func lessValuable(a, b *ktask) bool {
	if fpx.Ne(a.cfg.Value, b.cfg.Value) {
		return a.cfg.Value < b.cfg.Value
	}
	ua, ub := a.cfg.WCET/a.cfg.Period, b.cfg.WCET/b.cfg.Period
	if fpx.Ne(ua, ub) {
		return ua > ub
	}
	return a.id > b.id
}

// unshedOne restores the most recently shed task still registered.
func (k *Kernel) unshedOne() {
	for len(k.shedOrder) > 0 {
		id := k.shedOrder[len(k.shedOrder)-1]
		k.shedOrder = k.shedOrder[:len(k.shedOrder)-1]
		for _, t := range k.tasks {
			if t.id == id && t.shed {
				t.shed = false
				k.unshedsTotal++
				k.logEvent(Event{Kind: EvUnshed, Task: t.id, Name: t.cfg.Name})
				return
			}
		}
	}
}
