package main

import (
	"fmt"
	"reflect"
	"sort"

	placemon "repro"
	"repro/placemonclient"
)

// diagnosisOf converts an offline diagnosis to the wire form the daemon
// answers with.
func diagnosisOf(d *placemon.Diagnosis) *placemonclient.Diagnosis {
	return &placemonclient.Diagnosis{
		Candidates:       d.Candidates,
		DefinitelyFailed: d.DefinitelyFailed,
		PossiblyFailed:   d.PossiblyFailed,
		Healthy:          d.Healthy,
		Unobserved:       d.Unobserved,
	}
}

// normalize sorts every set of a diagnosis (and the candidate list) so
// two diagnoses compare as sets.
func normalize(d *placemonclient.Diagnosis) placemonclient.Diagnosis {
	out := placemonclient.Diagnosis{
		DefinitelyFailed: sortedCopy(d.DefinitelyFailed),
		PossiblyFailed:   sortedCopy(d.PossiblyFailed),
		Healthy:          sortedCopy(d.Healthy),
		Unobserved:       sortedCopy(d.Unobserved),
	}
	for _, c := range d.Candidates {
		out.Candidates = append(out.Candidates, sortedCopy(c))
	}
	sort.Slice(out.Candidates, func(i, j int) bool {
		a, b := out.Candidates[i], out.Candidates[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	for _, s := range []*[]int{&out.DefinitelyFailed, &out.PossiblyFailed, &out.Healthy, &out.Unobserved} {
		if len(*s) == 0 {
			*s = nil
		}
	}
	return out
}

// compareDiagnosis is the diagnosis oracle: the daemon's answer must equal
// the offline k-failure localization, set for set.
func compareDiagnosis(got, want *placemonclient.Diagnosis) error {
	if got == nil {
		return fmt.Errorf("daemon reported no diagnosis, offline localization found candidates %v", want.Candidates)
	}
	g, w := normalize(got), normalize(want)
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("daemon diagnosis %+v, offline localization %+v", g, w)
	}
	return nil
}

// sortedCopy returns the values sorted ascending (nil stays nil).
func sortedCopy(v []int) []int {
	if v == nil {
		return nil
	}
	out := append([]int(nil), v...)
	sort.Ints(out)
	return out
}
