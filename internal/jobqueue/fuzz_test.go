package jobqueue

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"testing"
)

// FuzzSubmitRequest feeds arbitrary bytes through the POST /jobs decode
// and ToSpec. Nothing may panic, and every body they accept must yield a
// Spec that passes Validate with every configuration inside the geometry
// limits, so an accepted request cannot make the daemon allocate beyond
// them.
func FuzzSubmitRequest(f *testing.F) {
	valid := `{"benchmark": "liver", "scale": 0.02, "configs": "misscache=2;sys=improved"}`
	f.Add([]byte(valid))
	f.Add([]byte(fmt.Sprintf(`{"trace": %q, "trace_format": "din", "lenient": true, "configs": "victim=4"}`,
		base64.StdEncoding.EncodeToString(testTraceDin(20)))))
	f.Add([]byte(`{"benchmark": "liver", "scale": 0.02, "shards": 2}`))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte(`{"benchmark": "liver", "scale": 1, "configs": "size=268435456;victim=50000000;ways=100000,depth=1000"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec, err := req.ToSpec()
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
