package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), so spreads read the same in both.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func loadReports(path string) ([]report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []report
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}

// compareMain compares two sets of reports (directories or files), per
// workload and metric: n, median and quartiles of each side and the
// change of the medians. It refuses reports whose host fingerprints
// differ, since a cross-host delta measures the hosts, not the code.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wirebench compare BASE HEAD  (each a report directory or file)")
		return 2
	}
	var sides [2][]report
	for i, a := range args {
		rs, err := loadReports(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wirebench compare:", err)
			return 2
		}
		sides[i] = rs
	}
	host := sides[0][0].Fingerprint.host()
	for i, rs := range sides {
		for _, r := range rs {
			if r.Fingerprint.host() != host {
				fmt.Fprintf(os.Stderr, "wirebench compare: refusing: %s holds a report from another host or setting:\n  %+v\nvs\n  %+v\n", args[i], r.Fingerprint.host(), host)
				return 3
			}
		}
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	codes := [2]map[string]bool{{}, {}}
	var keys []key
	for i, rs := range sides {
		for _, r := range rs {
			codes[i][r.Fingerprint.Code] = true
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				if i == 0 && vals[0][k] == nil {
					keys = append(keys, k)
				}
				vals[i][k] = append(vals[i][k], m.Value)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Printf("host: %+v\nbase code: %s\nhead code: %s\n", host, strings.Join(sortedKeys(codes[0]), ", "), strings.Join(sortedKeys(codes[1]), ", "))
	fmt.Printf("%-18s %-36s %4s %12s %12s %12s | %4s %12s %12s %12s | %8s\n",
		"workload", "metric", "n", "q1", "median", "q3", "n", "q1", "median", "q3", "change")
	for _, k := range keys {
		a, b := vals[0][k], vals[1][k]
		if len(b) == 0 {
			continue
		}
		a1, a2, a3 := quartiles(a)
		b1, b2, b3 := quartiles(b)
		fmt.Printf("%-18s %-36s %4d %12.5g %12.5g %12.5g | %4d %12.5g %12.5g %12.5g | %+7.2f%%\n",
			k.workload, k.metric, len(a), a1, a2, a3, len(b), b1, b2, b3, 100*ratio(b2-a2, a2))
	}
	return 0
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
