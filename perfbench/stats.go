package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// unit is one timed repetition within a run (a closed-loop round, an
// open-loop session, a recovery cycle) with the host's steal share over it:
// CPU time the hypervisor gave to other guests while the unit ran.
type unit struct {
	Value float64 `json:"value"`
	Steal float64 `json:"steal"`
}

// stealSlack is how much more steal than the run's quietest unit a unit
// may have and still count.
const stealSlack = 0.02

// quiet picks the units a steal-aware statistic uses: every unit within
// stealSlack of the least-disturbed one, and, in ascending order of steal,
// as many more as it takes to carry at least half of the total weight.
// Steal is interference from outside the guest, not work of the system
// under test; every unit stays in the stamp.
func quiet(steal []float64, weight []int) []bool {
	idx := make([]int, len(steal))
	total := 0
	for i := range idx {
		idx[i] = i
		total += weight[i]
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := make([]bool, len(steal))
	got := 0
	for _, i := range idx {
		if 2*got >= total && steal[i] > steal[idx[0]]+stealSlack {
			break
		}
		keep[i] = true
		got += weight[i]
	}
	return keep
}

// quietMedian is the median value over the quiet units.
func quietMedian(units []unit) float64 {
	steal, weight := make([]float64, len(units)), make([]int, len(units))
	for i, u := range units {
		steal[i], weight[i] = u.Steal, 1
	}
	var v []float64
	for i, k := range quiet(steal, weight) {
		if k {
			v = append(v, units[i].Value)
		}
	}
	return median(v)
}

// unitMeter measures the steal share over one unit.
type unitMeter struct{ steal, total uint64 }

func startUnit() unitMeter {
	s, t := cpuSteal()
	return unitMeter{s, t}
}

func (m unitMeter) done(value float64) unit {
	s, t := cpuSteal()
	return unit{value, ratio(float64(s-m.steal), float64(t-m.total))}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted values, interpolating linearly
// between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuSteal returns the host's steal and total CPU ticks from /proc/stat
// (zeros where it is unavailable).
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
