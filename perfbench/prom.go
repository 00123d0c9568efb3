package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample maps a sample's series (metric name plus its label set, as
// written: `name{k="v"}`) to its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format. Comment lines are
// skipped; every sample line is "series value".
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after minus before per series; series absent before count from
// zero (counters and histograms start at zero).
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMean is the mean observation of histogram name, in its own unit, and
// the observation count; 0, 0 when nothing was observed.
func (p promSample) histMean(name string) (float64, float64) {
	n := p[name+"_count"]
	if n == 0 {
		return 0, 0
	}
	return p[name+"_sum"] / n, n
}

// scrape fetches and parses a /metrics body.
func scrape(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
