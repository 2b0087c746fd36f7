package sim

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"jouppi/internal/hierarchy"
)

// grammarKeys lists every key of the configuration grammar, in the
// order Format emits them.
const grammarKeys = "sys, size, isize, dsize, line, iline, dline, assoc, iassoc, dassoc, " +
	"l2size, l2line, l2assoc, misscache, imisscache, victim, ivictim, " +
	"ways, depth, iways, idepth, quasi, stride, l2victim"

// LabeledConfig is one element of a parsed configuration list.
type LabeledConfig struct {
	// Label is the spec's trimmed text; the empty spec is "baseline".
	Label  string
	Config Config
}

// ParseConfigs parses a semicolon-separated list of configuration specs,
// each over base (see ParseConfig).
func ParseConfigs(list string, base Config) ([]LabeledConfig, error) {
	var out []LabeledConfig
	for _, spec := range strings.Split(list, ";") {
		label := strings.TrimSpace(spec)
		if label == "" {
			label = "baseline"
		}
		cfg, err := ParseConfig(spec, base)
		if err != nil {
			return nil, fmt.Errorf("config %q: %w", label, err)
		}
		out = append(out, LabeledConfig{Label: label, Config: cfg})
	}
	return out, nil
}

// ParseConfig parses one configuration spec: a comma-separated list of
// key=value pairs, applied in order over base. The empty spec is base
// itself. Keys and values are trimmed.
//
//	sys=baseline|improved        start over from a preset system
//	size, line, assoc=N          both L1 geometries
//	isize, iline, iassoc=N       the instruction-side L1 only (dsize, dline, dassoc: data side)
//	l2size, l2line, l2assoc=N    the L2 geometry
//	misscache=N, victim=N        data-side miss or victim cache entries (imisscache, ivictim: I side)
//	ways=N, depth=N              data-side stream buffers (iways, idepth: I side)
//	quasi, stride=bool           stream buffer extensions, on every side that has buffers
//	l2victim=N                   a victim cache behind the L2
//
// A side has stream buffers only when its ways is positive; depth on its
// own builds nothing, and quasi or stride without ways anywhere is an
// error, as are negative counts and a miss cache combined with a victim
// cache or stream buffers. Cache geometry is checked when the system is
// built.
func ParseConfig(spec string, base Config) (Config, error) {
	var (
		c             Config
		iSt, dSt      StreamOptions
		quasi, stride bool
	)
	start := func(from Config) {
		c, iSt, dSt = from, StreamOptions{}, StreamOptions{}
		if from.I.Stream != nil {
			iSt = *from.I.Stream
		}
		if from.D.Stream != nil {
			dSt = *from.D.Stream
		}
		quasi = iSt.Quasi || dSt.Quasi
		stride = iSt.DetectStride || dSt.DetectStride
	}
	start(base)
	ints := map[string][]*int{
		"size": {&c.L1I.Size, &c.L1D.Size}, "isize": {&c.L1I.Size}, "dsize": {&c.L1D.Size},
		"line": {&c.L1I.LineSize, &c.L1D.LineSize}, "iline": {&c.L1I.LineSize}, "dline": {&c.L1D.LineSize},
		"assoc": {&c.L1I.Assoc, &c.L1D.Assoc}, "iassoc": {&c.L1I.Assoc}, "dassoc": {&c.L1D.Assoc},
		"l2size": {&c.L2.Size}, "l2line": {&c.L2.LineSize}, "l2assoc": {&c.L2.Assoc},
		"misscache": {&c.D.MissCacheEntries}, "imisscache": {&c.I.MissCacheEntries},
		"victim": {&c.D.VictimCacheEntries}, "ivictim": {&c.I.VictimCacheEntries},
		"ways": {&dSt.Ways}, "depth": {&dSt.Depth}, "iways": {&iSt.Ways}, "idepth": {&iSt.Depth},
		"l2victim": {&c.L2VictimEntries},
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("want key=value, got %q", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "sys":
			switch val {
			case "baseline":
				start(BaselineSystem())
			case "improved":
				start(ImprovedSystem())
			default:
				return Config{}, fmt.Errorf("sys: unknown preset %q (have baseline, improved)", val)
			}
		case "quasi", "stride":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return Config{}, fmt.Errorf("%s: %v", key, err)
			}
			if key == "quasi" {
				quasi = b
			} else {
				stride = b
			}
		default:
			fields, ok := ints[key]
			if !ok {
				return Config{}, fmt.Errorf("unknown key %q (have %s)", key, grammarKeys)
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return Config{}, fmt.Errorf("%s: %v", key, err)
			}
			for _, f := range fields {
				*f = n
			}
		}
	}
	for _, s := range []struct {
		st  StreamOptions
		aug *Augmentation
	}{{iSt, &c.I}, {dSt, &c.D}} {
		s.aug.Stream = nil
		if st := s.st; st.Ways != 0 || st.Depth != 0 {
			st.Quasi, st.DetectStride = quasi, stride
			s.aug.Stream = &st
		}
	}
	if _, err := c.Hierarchy(); err != nil {
		return Config{}, err
	}
	if (quasi || stride) && iSt.Ways == 0 && dSt.Ways == 0 {
		return Config{}, fmt.Errorf("quasi and stride need stream buffers: set ways or iways")
	}
	return c, nil
}

// Format returns the canonical spec of c, the inverse of ParseConfig
// over the baseline: defaults filled in, keys in grammarKeys order,
// every value equal to the baseline system's left out, and presets
// spelled out. Configurations that build the same system format the
// same, so the baseline formats as "". Fields the grammar has no key for
// (RunLimit, L2Stream, the miss penalties) are not part of the spec.
func Format(c Config) string {
	def := hierarchy.DefaultConfig()
	var kvs []string
	put := func(key string, v, baseline int) {
		if v != baseline {
			kvs = append(kvs, key+"="+strconv.Itoa(v))
		}
	}
	l1 := func(key string, i, d, baseline int) {
		i, d = cmp.Or(i, baseline), cmp.Or(d, baseline)
		if i == d {
			put(key, i, baseline)
			return
		}
		put("i"+key, i, baseline)
		put("d"+key, d, baseline)
	}
	l1("size", c.L1I.Size, c.L1D.Size, def.L1D.Size)
	l1("line", c.L1I.LineSize, c.L1D.LineSize, def.L1D.LineSize)
	l1("assoc", c.L1I.Assoc, c.L1D.Assoc, def.L1D.Assoc)
	put("l2size", cmp.Or(c.L2.Size, def.L2.Size), def.L2.Size)
	put("l2line", cmp.Or(c.L2.LineSize, def.L2.LineSize), def.L2.LineSize)
	put("l2assoc", cmp.Or(c.L2.Assoc, def.L2.Assoc), def.L2.Assoc)
	put("misscache", c.D.MissCacheEntries, 0)
	put("imisscache", c.I.MissCacheEntries, 0)
	put("victim", c.D.VictimCacheEntries, 0)
	put("ivictim", c.I.VictimCacheEntries, 0)
	var quasi, stride bool
	for _, s := range []struct {
		prefix string
		st     *StreamOptions
	}{{"", c.D.Stream}, {"i", c.I.Stream}} {
		if s.st == nil || s.st.Ways <= 0 {
			continue
		}
		put(s.prefix+"ways", s.st.Ways, 0)
		put(s.prefix+"depth", cmp.Or(s.st.Depth, defaultStreamDepth), defaultStreamDepth)
		quasi = quasi || s.st.Quasi
		stride = stride || s.st.DetectStride
	}
	if quasi {
		kvs = append(kvs, "quasi=true")
	}
	if stride {
		kvs = append(kvs, "stride=true")
	}
	put("l2victim", c.L2VictimEntries, 0)
	return strings.Join(kvs, ",")
}
