package rtos

import (
	"fmt"
	"strconv"
	"strings"

	"rtdvs/internal/core"
	"rtdvs/internal/stats"
)

// Status renders the kernel state as human-readable text, the analogue of
// reading the prototype's /procfs entries with cat.
func (k *Kernel) Status() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time: %.3f ms\n", k.now)
	fmt.Fprintf(&b, "policy: %s (%s scheduler, guaranteed=%v)\n",
		k.policy.Name(), k.policy.Scheduler(), k.policy.Guaranteed())
	fmt.Fprintf(&b, "machine: %s\n", k.cpu.spec)
	fmt.Fprintf(&b, "point: %s  switches: %d  halt: %.3f ms\n",
		k.cpu.Point(), k.cpu.Switches(), k.cpu.HaltTime())
	fmt.Fprintf(&b, "energy: %.4g (exec %.4g, idle %.4g)  cycles: %.4g\n",
		k.cpu.Energy(), k.cpu.execEnergy, k.cpu.idleEnergy, k.cpu.Cycles())
	fmt.Fprintf(&b, "misses: %d  overruns: %d\n", len(k.misses), len(k.overruns))
	if k.shedCfg.Window > 0 || k.shedsTotal > 0 {
		fmt.Fprintf(&b, "shed: %d active  %d sheds  %d recoveries  %d jobs skipped\n",
			k.ShedActive(), k.Sheds(), k.ShedRecoveries(), k.JobsSkipped())
	}
	if k.faults != nil {
		rec := k.faults.Record()
		fmt.Fprintf(&b, "faults: %d injected (%d overruns, %d overloads)\n",
			rec.Total(), rec.Overruns, rec.Overloads)
	}

	var t stats.Table
	t.Header("id", "name", "period", "wcet", "state", "deadline", "rel", "done", "miss", "ovr", "inj", "cont", "skip")
	for _, ts := range k.Tasks() {
		state := "idle"
		if ts.Active {
			state = "ready"
		}
		if ts.Soft {
			state += "/soft"
		}
		if ts.Shed {
			state += "/shed"
		}
		t.Rowf(
			strconv.Itoa(int(ts.ID)), ts.Name,
			fmt.Sprintf("%g", ts.Period), fmt.Sprintf("%g", ts.WCET),
			state, fmt.Sprintf("%.3f", ts.Deadline),
			strconv.Itoa(ts.Releases), strconv.Itoa(ts.Completions),
			strconv.Itoa(ts.Misses), strconv.Itoa(ts.Overruns),
			strconv.Itoa(ts.Injected), strconv.Itoa(ts.Containments),
			strconv.Itoa(ts.Skips),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// Command executes one textual control command, the analogue of writing to
// the prototype's /procfs entries from a shell. Supported commands:
//
//	policy <name>                 hot-swap the RT-DVS policy module
//	add <name> <period> <wcet>    register a task (deferred release)
//	add! <name> <period> <wcet>   register a task (immediate release)
//	rm <name>                     deregister a task
//	shed <window> <missfrac>      arm the load shedder (defaults otherwise)
//	shed off                      disarm it and restore shed tasks
//
// It returns a short confirmation line.
func (k *Kernel) Command(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", fmt.Errorf("rtos: empty command")
	}
	switch fields[0] {
	case "policy":
		if len(fields) != 2 {
			return "", fmt.Errorf("rtos: usage: policy <name>")
		}
		p, err := core.ExtendedByName(fields[1])
		if err != nil {
			return "", err
		}
		if err := k.SetPolicy(p); err != nil {
			return "", err
		}
		return fmt.Sprintf("policy set to %s", p.Name()), nil

	case "add", "add!":
		if len(fields) != 4 {
			return "", fmt.Errorf("rtos: usage: %s <name> <period> <wcet>", fields[0])
		}
		period, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return "", fmt.Errorf("rtos: bad period %q: %v", fields[2], err)
		}
		wcet, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return "", fmt.Errorf("rtos: bad wcet %q: %v", fields[3], err)
		}
		id, err := k.AddTask(
			TaskConfig{Name: fields[1], Period: period, WCET: wcet},
			AddOptions{Immediate: fields[0] == "add!"},
		)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("task %s registered with id %d", fields[1], id), nil

	case "shed":
		if len(fields) == 2 && fields[1] == "off" {
			if err := k.SetLoadShedding(ShedConfig{}); err != nil {
				return "", err
			}
			return "load shedding off", nil
		}
		if len(fields) != 3 {
			return "", fmt.Errorf("rtos: usage: shed <window> <missfrac> | shed off")
		}
		window, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || window <= 0 {
			return "", fmt.Errorf("rtos: bad shed window %q", fields[1])
		}
		missFrac, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return "", fmt.Errorf("rtos: bad shed missfrac %q: %v", fields[2], err)
		}
		if err := k.SetLoadShedding(ShedConfig{Window: window, MissFrac: missFrac}); err != nil {
			return "", err
		}
		cfg := k.LoadShedding()
		return fmt.Sprintf("load shedding armed: window %g ms, trigger %g, recover %g", cfg.Window, cfg.MissFrac, cfg.CalmFrac), nil

	case "rm":
		if len(fields) != 2 {
			return "", fmt.Errorf("rtos: usage: rm <name>")
		}
		t := k.findByName(fields[1])
		if t == nil {
			return "", fmt.Errorf("rtos: no task named %q", fields[1])
		}
		if err := k.RemoveTask(t.id); err != nil {
			return "", err
		}
		return fmt.Sprintf("task %s removed", fields[1]), nil
	}
	return "", fmt.Errorf("rtos: unknown command %q", fields[0])
}
