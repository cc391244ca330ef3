package training

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"schedfilter/internal/features"
)

// CSV export/import of raw training instances, so the labelled data can be
// inspected or fed to external learners (the paper's workflow kept the
// trace files around for exactly this kind of offline analysis).
//
// Columns: bench, fn, block, the 13 features, costNS, costLS, execs.

// csvHeader returns the fixed column header.
func csvHeader() string {
	cols := []string{"bench", "fn", "block"}
	cols = append(cols, features.Names[:]...)
	cols = append(cols, "costNS", "costLS", "execs")
	return strings.Join(cols, ",")
}

// WriteCSV writes all benchmarks' records.
func WriteCSV(w io.Writer, data []*BenchData) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, csvHeader()); err != nil {
		return err
	}
	for _, bd := range data {
		for i := range bd.Records {
			r := &bd.Records[i]
			fields := make([]string, 0, 3+features.Count+3)
			fields = append(fields, bd.Name, r.Fn, strconv.Itoa(r.Block))
			for _, v := range r.Feat {
				fields = append(fields, strconv.FormatFloat(v, 'g', -1, 64))
			}
			fields = append(fields,
				strconv.Itoa(r.CostNS),
				strconv.Itoa(r.CostLS),
				strconv.FormatInt(r.Execs, 10))
			if _, err := fmt.Fprintln(bw, strings.Join(fields, ",")); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// readCSV parses instances written by WriteCSV, grouping them back into
// per-benchmark BenchData (without compiled programs — CSV round-trips
// records only).
func readCSV(r io.Reader) ([]*BenchData, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("training: empty CSV")
	}
	if got := strings.TrimSpace(sc.Text()); got != csvHeader() {
		return nil, fmt.Errorf("training: unexpected CSV header %q", got)
	}
	wantFields := 3 + features.Count + 3

	byName := map[string]*BenchData{}
	var order []*BenchData
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != wantFields {
			return nil, fmt.Errorf("training: line %d: %d fields, want %d", line, len(fields), wantFields)
		}
		var rec BlockRecord
		bench := fields[0]
		rec.Fn = fields[1]
		var err error
		if rec.Block, err = strconv.Atoi(fields[2]); err != nil {
			return nil, fmt.Errorf("training: line %d: bad block %q", line, fields[2])
		}
		for i := 0; i < features.Count; i++ {
			v, err := strconv.ParseFloat(fields[3+i], 64)
			if err != nil {
				return nil, fmt.Errorf("training: line %d: bad feature %q", line, fields[3+i])
			}
			// ParseFloat accepts NaN and ±Inf; Ripper orders instances
			// by feature value, which needs finite values.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("training: line %d: non-finite feature %s = %q", line, features.Names[i], fields[3+i])
			}
			rec.Feat[i] = v
		}
		if rec.CostNS, err = strconv.Atoi(fields[3+features.Count]); err != nil {
			return nil, fmt.Errorf("training: line %d: bad costNS", line)
		}
		if rec.CostLS, err = strconv.Atoi(fields[4+features.Count]); err != nil {
			return nil, fmt.Errorf("training: line %d: bad costLS", line)
		}
		if rec.Execs, err = strconv.ParseInt(fields[5+features.Count], 10, 64); err != nil {
			return nil, fmt.Errorf("training: line %d: bad execs", line)
		}
		bd, ok := byName[bench]
		if !ok {
			bd = &BenchData{Name: bench}
			byName[bench] = bd
			order = append(order, bd)
		}
		bd.Records = append(bd.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return order, nil
}
