package obstest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal parser for Prometheus text exposition format 0.0.4 — enough
// to round-trip WritePrometheus output in tests and to validate scrape
// bodies without any external dependency.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily groups the samples sharing one metric family. For
// histograms the family is the base name and Samples holds the
// _bucket/_sum/_count series.
type PromFamily struct {
	Name    string
	Type    string
	Samples []PromSample
}

// histogramSeriesBase maps a histogram series name (x_bucket, x_sum,
// x_count) back onto its family base name, or returns name unchanged.
func histogramSeriesBase(name string, families map[string]*PromFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if f, ok := families[base]; ok && f.Type == "histogram" {
				return base
			}
		}
	}
	return name
}

// parsePromLabels parses the {name="value",...} block starting at s[0] ==
// '{'. It returns the labels and the offset just past the closing '}'.
func parsePromLabels(s string) (map[string]string, int, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, i + 1, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return nil, 0, fmt.Errorf("obs: label block missing '=' in %q", s)
		}
		name := strings.TrimSpace(s[start:i])
		if name == "" {
			return nil, 0, fmt.Errorf("obs: empty label name in %q", s)
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return nil, 0, fmt.Errorf("obs: label value missing opening quote in %q", s)
		}
		i++
		var sb strings.Builder
		for {
			if i >= len(s) {
				return nil, 0, fmt.Errorf("obs: unterminated label value in %q", s)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, 0, fmt.Errorf("obs: dangling escape in %q", s)
				}
				switch s[i+1] {
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				case 'n':
					sb.WriteByte('\n')
				default:
					return nil, 0, fmt.Errorf("obs: unknown escape \\%c in %q", s[i+1], s)
				}
				i += 2
				continue
			}
			sb.WriteByte(c)
			i++
		}
		labels[name] = sb.String()
	}
}

// ParsePrometheus parses text exposition format 0.0.4 into families
// keyed by family name. Histogram _bucket/_sum/_count series fold into
// the base family declared by their # TYPE line. # HELP lines and
// trailing timestamps are accepted and ignored.
func ParsePrometheus(r io.Reader) (map[string]*PromFamily, error) {
	families := map[string]*PromFamily{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, typ)
				}
				if f, ok := families[name]; ok && f.Type != typ {
					return nil, fmt.Errorf("obs: line %d: family %s re-declared as %s (was %s)", lineNo, name, typ, f.Type)
				}
				if _, ok := families[name]; !ok {
					families[name] = &PromFamily{Name: name, Type: typ}
				}
			}
			continue // HELP and other comments
		}

		// Sample line: name[{labels}] value [timestamp]
		i := 0
		for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		name := line[:i]
		if name == "" {
			return nil, fmt.Errorf("obs: line %d: missing metric name", lineNo)
		}
		var labels map[string]string
		if i < len(line) && line[i] == '{' {
			var (
				n   int
				err error
			)
			labels, n, err = parsePromLabels(line[i:])
			if err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
			i += n
		}
		rest := strings.Fields(line[i:])
		if len(rest) < 1 || len(rest) > 2 {
			return nil, fmt.Errorf("obs: line %d: want value [timestamp], got %q", lineNo, line[i:])
		}
		v, err := parsePromValue(rest[0])
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		if len(rest) == 2 {
			if _, err := strconv.ParseInt(rest[1], 10, 64); err != nil {
				return nil, fmt.Errorf("obs: line %d: bad timestamp %q", lineNo, rest[1])
			}
		}
		fam := histogramSeriesBase(name, families)
		f, ok := families[fam]
		if !ok {
			f = &PromFamily{Name: fam, Type: "untyped"}
			families[fam] = f
		}
		f.Samples = append(f.Samples, PromSample{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return families, nil
}

// parsePromValue parses a sample value, accepting the +Inf/-Inf/NaN
// spellings.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad sample value %q", s)
	}
	return v, nil
}

// labelsWithout copies labels minus the given key, as a sorted flat key
// for grouping histogram series.
func labelsWithout(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

// ValidatePrometheus checks parsed families for the invariants scrapers
// rely on: finite sample values (no NaN), non-negative counters, and for
// every histogram child: le-ascending cumulative non-decreasing buckets,
// a +Inf bucket present and equal to _count, and a _sum series.
func ValidatePrometheus(families map[string]*PromFamily) error {
	for name, f := range families {
		for _, s := range f.Samples {
			if math.IsNaN(s.Value) {
				return fmt.Errorf("obs: %s: NaN sample value", s.Name)
			}
			if f.Type == "counter" && s.Value < 0 {
				return fmt.Errorf("obs: %s: negative counter value %v", s.Name, s.Value)
			}
		}
		if f.Type != "histogram" {
			continue
		}
		type histChild struct {
			buckets []PromSample
			sum     *PromSample
			count   *PromSample
		}
		children := map[string]*histChild{}
		child := func(key string) *histChild {
			c, ok := children[key]
			if !ok {
				c = &histChild{}
				children[key] = c
			}
			return c
		}
		for i := range f.Samples {
			s := &f.Samples[i]
			key := labelsWithout(s.Labels, "le")
			switch {
			case s.Name == name+"_bucket":
				child(key).buckets = append(child(key).buckets, *s)
			case s.Name == name+"_sum":
				child(key).sum = s
			case s.Name == name+"_count":
				child(key).count = s
			default:
				return fmt.Errorf("obs: histogram %s has stray series %s", name, s.Name)
			}
		}
		for key, c := range children {
			if len(c.buckets) == 0 {
				return fmt.Errorf("obs: histogram %s{%s}: no buckets", name, key)
			}
			if c.sum == nil || c.count == nil {
				return fmt.Errorf("obs: histogram %s{%s}: missing _sum or _count", name, key)
			}
			type bp struct {
				le  float64
				n   float64
				inf bool
			}
			bps := make([]bp, 0, len(c.buckets))
			for _, b := range c.buckets {
				le, ok := b.Labels["le"]
				if !ok {
					return fmt.Errorf("obs: histogram %s{%s}: bucket without le label", name, key)
				}
				lv, err := parsePromValue(le)
				if err != nil {
					return fmt.Errorf("obs: histogram %s{%s}: bad le %q", name, key, le)
				}
				bps = append(bps, bp{le: lv, n: b.Value, inf: math.IsInf(lv, 1)})
			}
			sort.Slice(bps, func(i, j int) bool { return bps[i].le < bps[j].le })
			var prev float64
			hasInf := false
			for i, b := range bps {
				if i > 0 && b.le == bps[i-1].le {
					return fmt.Errorf("obs: histogram %s{%s}: duplicate le bound %v", name, key, b.le)
				}
				if b.n < prev {
					return fmt.Errorf("obs: histogram %s{%s}: bucket counts not cumulative at le=%v", name, key, b.le)
				}
				prev = b.n
				if b.inf {
					hasInf = true
					if b.n != c.count.Value {
						return fmt.Errorf("obs: histogram %s{%s}: +Inf bucket %v != _count %v", name, key, b.n, c.count.Value)
					}
				}
			}
			if !hasInf {
				return fmt.Errorf("obs: histogram %s{%s}: missing +Inf bucket", name, key)
			}
		}
	}
	return nil
}
