// Command rtdvs-rtos is an interactive shell over the RTOS kernel — the
// analogue of poking the prototype's /procfs entries with cat and echo.
// It reads commands from stdin (or from -script) and advances virtual
// time on demand.
//
// Commands:
//
//	add <name> <period> <wcet>    register a task (release deferred)
//	add! <name> <period> <wcet>   register a task (release immediately)
//	rm <name>                     deregister a task
//	policy <name>                 hot-swap the RT-DVS policy module
//	step <ms>                     advance virtual time
//	status                        dump kernel state
//	power                         average system power since last `mark`
//	mark                          start a new power-measurement window
//	quit                          exit
//
// Example session:
//
//	$ rtdvs-rtos
//	> add video 33 10
//	> add audio 10 2
//	> step 1000
//	> power
//	> policy laEDF
//	> step 1000
//	> power
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/obs"
	"rtdvs/internal/rtos"
)

func main() {
	mname := flag.String("machine", "k6-2+", "machine spec: "+strings.Join(machine.Names(), ", "))
	pname := flag.String("policy", "ccEDF", "initial policy: "+strings.Join(core.ExtendedNames(), ", "))
	script := flag.String("script", "", "read commands from this file instead of stdin")
	var logOpts obs.LogOptions
	logOpts.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logOpts.NewLogger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtdvs-rtos: %v\n", err)
		os.Exit(2)
	}
	logger = logger.With("component", "rtdvs-rtos")
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	k, err := newKernel(*mname, *pname)
	if err != nil {
		fatal(err)
	}
	meter := rtos.NewPowerMeter(k.CPU(), rtos.DefaultSystemPower(), false, false)
	meter.Mark(0)

	in := os.Stdin
	interactive := true
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		interactive = false
	}

	sc := bufio.NewScanner(in)
	for {
		if interactive {
			fmt.Printf("[t=%.3f ms] > ", k.Now())
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !interactive {
			fmt.Printf("[t=%.3f ms] > %s\n", k.Now(), line)
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "quit", "exit":
			return
		case "status":
			fmt.Print(k.Status())
		case "step":
			if len(fields) != 2 {
				fmt.Println("usage: step <ms>")
				continue
			}
			ms, err := parseDuration(fields[1])
			if err != nil {
				fmt.Printf("bad duration %q\n", fields[1])
				continue
			}
			k.Step(k.Now() + ms)
			fmt.Printf("advanced to %.3f ms (misses so far: %d)\n", k.Now(), len(k.Misses()))
		case "mark":
			meter.Mark(k.Now())
			fmt.Println("measurement window restarted")
		case "power":
			fmt.Printf("average system power since mark: %.2f W (CPU-only: %.3f units)\n",
				meter.Average(k.Now()), meter.CPUOnlyAverage(k.Now()))
		default:
			out, err := k.Command(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(out)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

// parseDuration reads the step command's duration: a positive, finite
// number of milliseconds. An infinite one would step the kernel toward a
// target it never reaches.
func parseDuration(s string) (float64, error) {
	ms, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(ms > 0) || math.IsInf(ms, 1) {
		return 0, fmt.Errorf("duration must be positive and finite, got %v", ms)
	}
	return ms, nil
}

// newKernel builds the shell's kernel: the named machine with the K6-2+
// switch overhead, running the named policy. It resolves the policy as
// the shell's policy command does, so every name that command accepts
// also starts the shell.
func newKernel(mname, pname string) (*rtos.Kernel, error) {
	spec := machine.ByName(mname)
	if spec == nil {
		return nil, fmt.Errorf("unknown machine %q", mname)
	}
	p, err := core.ExtendedByName(pname)
	if err != nil {
		return nil, err
	}
	return rtos.NewKernel(spec, machine.K62SwitchOverhead, p)
}
