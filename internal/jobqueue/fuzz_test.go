package jobqueue

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzSubmitRequest feeds arbitrary bytes through the POST /jobs decode
// (parseSubmit). Nothing may panic, and every body it accepts must yield
// a Spec that passes Validate with every configuration inside the
// geometry limits, so an accepted request cannot make the daemon
// allocate beyond them.
func FuzzSubmitRequest(f *testing.F) {
	valid := `{"benchmark": "liver", "scale": 0.02, "configs": "misscache=2;sys=improved"}`
	f.Add([]byte(valid))
	f.Add([]byte(fmt.Sprintf(`{"trace": %q, "trace_format": "din", "lenient": true, "configs": "victim=4"}`,
		base64.StdEncoding.EncodeToString(testTraceDin(20)))))
	f.Add([]byte(`{"benchmark": "liver", "scale": 0.02, "shards": 2}`))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte(`{"benchmark": "liver", "scale": 1, "configs": "size=268435456;victim=50000000;ways=100000,depth=1000"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := parseSubmit(body)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted body yields an invalid spec: %v", err)
		}
		for _, c := range spec.Configs {
			if err := checkLimits(c.Config); err != nil {
				t.Fatalf("accepted config %q exceeds the limits: %v", c.Label, err)
			}
		}
	})
}

// referenceSubmit is the POST /jobs decode that runs the whole body,
// trace included, through encoding/json: json.Decoder with unknown
// fields disallowed, then base64.StdEncoding.DecodeString of the trace
// string. parseSubmit must accept exactly the bodies it accepts and
// yield the same Spec.
func referenceSubmit(body []byte) (*Spec, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	var data []byte
	if req.Trace != "" {
		var err error
		if data, err = base64.StdEncoding.DecodeString(req.Trace); err != nil {
			return nil, err
		}
	}
	return req.spec(data)
}

// FuzzSubmitDecodeVsJSON checks parseSubmit, which cuts the trace out
// of the body and decodes its base64 in place, against referenceSubmit:
// both accept or both reject every body, and an accepted body yields
// equal Spec fields and equal trace bytes.
func FuzzSubmitDecodeVsJSON(f *testing.F) {
	b64 := base64.StdEncoding.EncodeToString(testTraceDin(20))
	for _, body := range []string{
		fmt.Sprintf(`{"trace_format":"din","configs":"victim=4","trace":%q}`, b64),
		fmt.Sprintf(`{"trace":%q,"trace_format":"din","lenient":true,"max_drops":3,"retries":2,"timeout":"5s"}`, b64),
		// Escapes, unquoted by JSON's rules.
		`{"trace":"QU\/AAA==","trace_format":"din"}`,
		`{"trace":"\u0041AAA","trace_format":"din"}`,
		`{"trace":"AAAA\nAAAA","trace_format":"din"}`,
		// A raw line break, which JSON forbids and base64 would skip.
		"{\"trace\":\"AAAA\nAAAA\",\"trace_format\":\"din\"}",
		"{\"trace\":\"AAAA\r\",\"trace_format\":\"din\"}",
		// Duplicate keys: encoding/json matches both, the last one wins.
		`{"trace":"AAAA","Trace":"BBBB","trace_format":"din"}`,
		`{"TRACE":"AAAA","trace_format":"din","trace":""}`,
		`{"trace":null,"trace_format":"din"}`,
		`{"trace":"AAAA","trace":null,"trace_format":"din"}`,
		`{"trace":"","benchmark":"liver","scale":0.02}`,
		// Bytes after the closing brace are never read.
		`{"trace":"AAAA","trace_format":"din"} trailing {"x"`,
		// Leading whitespace.
		" \t\r\n{ \"trace\" : \"AAAA\" , \"trace_format\" : \"din\" } ",
		// A nested value.
		`{"trace":"AAAA","trace_format":"din","configs":{"victim":4}}`,
		`{"trace":["AAAA"],"trace_format":"din"}`,
		`{"trace":"AAAA","trace_format":"din"}`,
		`{"trace":"AAAA","trace_format":"din","shards":2}`,
		`{"trace":"AAAA","trace_format":"din",}`,
		`{"trace":"AA\"AA","trace_format":"din"}`,
		`{"trace":"AAAA\\","trace_format":"din"}`,
		`{"trace":"AAAA"`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := parseSubmit(body)
		want, wantErr := referenceSubmit(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: parseSubmit err = %v, reference err = %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !bytes.Equal(got.TraceData, want.TraceData) {
			t.Fatalf("body %q: trace %q, reference %q", body, got.TraceData, want.TraceData)
		}
		got.TraceData, want.TraceData = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: spec %+v, reference %+v", body, got, want)
		}
	})
}
