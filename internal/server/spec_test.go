package server

import (
	"bytes"
	"strings"
	"testing"
)

func TestDecodeSpecDefaults(t *testing.T) {
	spec, err := DecodeSpec([]byte(`{"controller":"wgrb","workload":"bwaves","n":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cache.SizeKB != 64 || spec.Cache.Ways != 4 || spec.Cache.BlockBytes != 32 || spec.Cache.Policy != "lru" {
		t.Fatalf("baseline cache defaults not applied: %+v", spec.Cache)
	}
	if spec.Options.BufferDepth != 1 {
		t.Fatalf("BufferDepth default = %d, want 1", spec.Options.BufferDepth)
	}
	if spec.VDD != 1.0 || spec.FreqMHz != 2000 {
		t.Fatalf("operating-point defaults = %v V / %v MHz", spec.VDD, spec.FreqMHz)
	}
	if err := spec.Validate(false); err != nil {
		t.Fatalf("baseline spec should validate: %v", err)
	}
}

func TestDecodeSpecStrict(t *testing.T) {
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown field", `{"controller":"wgrb","workloadd":"bwaves"}`},
		{"trailing data", `{"controller":"wgrb"} {"x":1}`},
		{"type mismatch", `{"controller":42}`},
		{"not an object", `[1,2,3]`},
		{"empty", ``},
	} {
		if _, err := DecodeSpec([]byte(tc.body)); err == nil {
			t.Errorf("%s: DecodeSpec accepted %q", tc.name, tc.body)
		}
	}
}

// TestValidateFieldErrors pins that every rejection names the failing field —
// the contract the API's 400 responses are built on.
func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*JobSpec)
		hasTrace bool
		fields   []string // fields that must appear in the SpecError
	}{
		{
			name:   "unknown controller",
			mutate: func(s *JobSpec) { s.Controller = "bogus" },
			fields: []string{"controller"},
		},
		{
			name:   "missing controller",
			mutate: func(s *JobSpec) { s.Controller = "" },
			fields: []string{"controller"},
		},
		{
			name:   "unknown workload",
			mutate: func(s *JobSpec) { s.Workload = "nonesuch" },
			fields: []string{"workload"},
		},
		{
			name:   "workload job needs n",
			mutate: func(s *JobSpec) { s.N = 0 },
			fields: []string{"n"},
		},
		{
			name:     "workload and trace together",
			mutate:   func(s *JobSpec) {},
			hasTrace: true,
			fields:   []string{"workload"},
		},
		{
			name:   "cache size over cap",
			mutate: func(s *JobSpec) { s.Cache.SizeKB = MaxCacheKB + 1 },
			fields: []string{"cache.size_kb"},
		},
		{
			name:   "non-power-of-two geometry",
			mutate: func(s *JobSpec) { s.Cache.BlockBytes = 33 },
			fields: []string{"cache"},
		},
		{
			name:   "bad policy",
			mutate: func(s *JobSpec) { s.Cache.Policy = "mru" },
			fields: []string{"cache.policy"},
		},
		{
			name:   "shards over the cache cap",
			mutate: func(s *JobSpec) { s.Cache.SizeKB = 1024; s.Shards = 128 },
			fields: []string{"shards"},
		},
		{
			name:   "shards with random replacement",
			mutate: func(s *JobSpec) { s.Controller = "rmw"; s.Shards = 4; s.Cache.Policy = "random" },
			fields: []string{"shards"},
		},
		{
			name:   "several at once",
			mutate: func(s *JobSpec) { s.Controller = "bogus"; s.N = -1; s.Batch = -5; s.VDD = -0.9 },
			fields: []string{"controller", "n", "batch", "vdd"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{Controller: "wgrb", Workload: "bwaves", N: 1000}
			spec.Normalize()
			tc.mutate(&spec)
			err := spec.Validate(tc.hasTrace)
			if err == nil {
				t.Fatalf("Validate accepted %+v", spec)
			}
			se, ok := err.(*SpecError)
			if !ok {
				t.Fatalf("Validate returned %T, want *SpecError", err)
			}
			for _, want := range tc.fields {
				found := false
				for _, f := range se.Fields {
					if f.Field == want {
						found = true
					}
				}
				if !found {
					t.Errorf("no error for field %q in %v", want, se)
				}
			}
		})
	}
}

// TestValidShardedSpec pins that every controller may shard, cross-set
// ones (the WG family, coalesce, ts) included, while the shards' caches
// together stay within the cap one cache has.
func TestValidShardedSpec(t *testing.T) {
	for _, kind := range []string{"conventional", "word", "rmw", "localrmw", "coalesce", "wg", "wgrb", "ts"} {
		spec := JobSpec{Controller: kind, Workload: "bwaves", N: 1000, Shards: 4}
		spec.Normalize()
		if err := spec.Validate(false); err != nil {
			t.Errorf("%s with shards should validate: %v", kind, err)
		}
	}
	spec := JobSpec{Controller: "wg", Workload: "bwaves", N: 1000, Cache: CacheSpec{SizeKB: 1024}, Shards: 64}
	spec.Normalize()
	if err := spec.Validate(false); err != nil {
		t.Errorf("64 shards of a 1024 KB cache, at the cap, should validate: %v", err)
	}
}

// TestSpecCanonicalRoundTrip pins the property the fuzzer explores: an
// accepted spec's canonical encoding decodes back to the same canonical
// bytes.
func TestSpecCanonicalRoundTrip(t *testing.T) {
	bodies := []string{
		`{"controller":"wgrb","workload":"bwaves","n":50000}`,
		`{"controller":"rmw","workload":"mcf","n":123,"seed":99,"shards":8,"batch":512}`,
		`{"controller":"wg","workload":"gcc","n":10,"cache":{"size_kb":32,"ways":8,"block_bytes":64,"policy":"plru"},"options":{"buffer_depth":4,"disable_silent_elision":true},"vdd":0.85,"freq_mhz":1500}`,
	}
	for _, body := range bodies {
		spec, err := DecodeSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		c1, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		spec2, err := DecodeSpec(c1)
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v\n%s", err, c1)
		}
		c2, err := spec2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Errorf("round trip drifted for %s:\n%s\nvs\n%s", body, c1, c2)
		}
	}
}

func TestSpecErrorMessage(t *testing.T) {
	err := &SpecError{Fields: []FieldError{{Field: "n", Msg: "must be >= 0"}, {Field: "vdd", Msg: "must be positive"}}}
	msg := err.Error()
	for _, want := range []string{"n: must be >= 0", "vdd: must be positive"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
