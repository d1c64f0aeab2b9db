package sim_test

import (
	"reflect"
	"sort"
	"testing"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// TestCompactTablesExpandExactly pins the run's compact delivery table
// against everything it answers, on every registry scenario and the replay
// and chaos families under the four sweep policies: each expanded delivery
// carries its endpoint nodes' times and its channel, the table is the
// inboxes concatenated in tick order, DeliveryFrom finds each entry, a
// fault-free run validates, and the fingerprint is the one recorded when
// deliveries were stored at full width.
func TestCompactTablesExpandExactly(t *testing.T) {
	scs := append(scenario.All(scenario.Registry(0)), scenario.ReplayFamily()...)
	scs = append(scs, scenario.FaultyFamily()...)
	for _, sc := range scs {
		for _, spec := range sweep.DefaultPolicies() {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := sim.Config{Net: sc.Net, Horizon: sc.Horizon, Policy: spec.New(seed), Externals: sc.Externals}
				if sc.FaultFamily != "" {
					p, err := faults.NewPlan(sc.FaultFamily, sc.Net, sc.Horizon, seed)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = p
				}
				r, err := sim.Simulate(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", sc.Name, spec.Name, seed, err)
				}
				key := pinKey{sc.Name, spec.Name, seed}
				if err := checkTables(r, sc.FaultFamily == ""); err != "" {
					t.Fatalf("%v: %s", key, err)
				}
				if got, want := r.Fingerprint(), pinnedFingerprints[key]; got != want {
					t.Errorf("%v: fingerprint %#x, want %#x", key, got, want)
				}
			}
		}
	}
}

// checkTables returns what the run's delivery table gets wrong, "" if
// nothing.
func checkTables(r *run.Run, faultFree bool) string {
	ds := r.Deliveries()
	if len(ds) != r.NumDeliveries() {
		return "NumDeliveries disagrees with Deliveries"
	}
	net := r.Net()
	for _, d := range ds {
		switch {
		case d.SendTime != r.MustTime(d.From) || d.RecvTime != r.MustTime(d.To):
			return "delivery " + d.String() + " times disagree with its nodes"
		case d.Chan != net.ChanIDOf(d.From.Proc, d.To.Proc):
			return "delivery " + d.String() + " carries the wrong channel"
		}
		if got, ok := r.DeliveryFrom(d.From, d.To.Proc); !ok || got != d {
			return "DeliveryFrom misses " + d.String()
		}
	}
	var nodes []run.BasicNode
	for _, p := range net.Procs() {
		for k := 1; k <= r.LastIndex(p); k++ {
			nodes = append(nodes, run.BasicNode{Proc: p, Index: k})
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		ti, tj := r.MustTime(nodes[i]), r.MustTime(nodes[j])
		return ti < tj || ti == tj && nodes[i].Proc < nodes[j].Proc
	})
	inboxes := []run.Delivery{}
	for _, b := range nodes {
		inboxes = append(inboxes, r.Inbox(b)...)
	}
	if !reflect.DeepEqual(ds, inboxes) {
		return "deliveries are not the inboxes in tick order"
	}
	if faultFree {
		if err := r.Validate(); err != nil {
			return err.Error()
		}
	}
	return ""
}

type pinKey struct {
	scenario, policy string
	seed             int64
}

// pinnedFingerprints were recorded from runs stored with full-width
// deliveries; the compact table must hash to the same values.
var pinnedFingerprints = map[pinKey]uint64{
	{"circuits", "eager", 1}:                   0xf47093fb8cd6d971,
	{"circuits", "eager", 2}:                   0xf47093fb8cd6d971,
	{"circuits", "lazy", 1}:                    0x3d2dd86308713f15,
	{"circuits", "lazy", 2}:                    0x3d2dd86308713f15,
	{"circuits", "random", 1}:                  0x3d2dd86308713f15,
	{"circuits", "random", 2}:                  0xf47093fb8cd6d971,
	{"circuits", "heavy", 1}:                   0xc40efbaf1ed607f6,
	{"circuits", "heavy", 2}:                   0xf47093fb8cd6d971,
	{"coord-early-m2", "eager", 1}:             0x2a58e4a51d2ce0ff,
	{"coord-early-m2", "eager", 2}:             0x2a58e4a51d2ce0ff,
	{"coord-early-m2", "lazy", 1}:              0xc4f3dc364badf2c3,
	{"coord-early-m2", "lazy", 2}:              0xc4f3dc364badf2c3,
	{"coord-early-m2", "random", 1}:            0xc7eb5f7d0c429bd1,
	{"coord-early-m2", "random", 2}:            0xfec68691a3e49864,
	{"coord-early-m2", "heavy", 1}:             0xc82cff3603cec222,
	{"coord-early-m2", "heavy", 2}:             0x25791ef91a398e8c,
	{"coord-early-m4", "eager", 1}:             0x6756944e8daab0ad,
	{"coord-early-m4", "eager", 2}:             0x6756944e8daab0ad,
	{"coord-early-m4", "lazy", 1}:              0xbf8f6f17059b1dba,
	{"coord-early-m4", "lazy", 2}:              0xbf8f6f17059b1dba,
	{"coord-early-m4", "random", 1}:            0x221c07d2b9c14,
	{"coord-early-m4", "random", 2}:            0x43ef938e65459779,
	{"coord-early-m4", "heavy", 1}:             0x5a418ec29bd8120b,
	{"coord-early-m4", "heavy", 2}:             0x266186bd84f40295,
	{"coord-m2", "eager", 1}:                   0x2a58e4a51d2ce0ff,
	{"coord-m2", "eager", 2}:                   0x2a58e4a51d2ce0ff,
	{"coord-m2", "lazy", 1}:                    0xc4f3dc364badf2c3,
	{"coord-m2", "lazy", 2}:                    0xc4f3dc364badf2c3,
	{"coord-m2", "random", 1}:                  0xc7eb5f7d0c429bd1,
	{"coord-m2", "random", 2}:                  0xfec68691a3e49864,
	{"coord-m2", "heavy", 1}:                   0xc82cff3603cec222,
	{"coord-m2", "heavy", 2}:                   0x25791ef91a398e8c,
	{"coord-m4", "eager", 1}:                   0x6756944e8daab0ad,
	{"coord-m4", "eager", 2}:                   0x6756944e8daab0ad,
	{"coord-m4", "lazy", 1}:                    0xbf8f6f17059b1dba,
	{"coord-m4", "lazy", 2}:                    0xbf8f6f17059b1dba,
	{"coord-m4", "random", 1}:                  0x221c07d2b9c14,
	{"coord-m4", "random", 2}:                  0x43ef938e65459779,
	{"coord-m4", "heavy", 1}:                   0x5a418ec29bd8120b,
	{"coord-m4", "heavy", 2}:                   0x266186bd84f40295,
	{"figure1", "eager", 1}:                    0x8ee82be10ef60c49,
	{"figure1", "eager", 2}:                    0x8ee82be10ef60c49,
	{"figure1", "lazy", 1}:                     0xa496e42cf2286057,
	{"figure1", "lazy", 2}:                     0xa496e42cf2286057,
	{"figure1", "random", 1}:                   0x210993ffae07c36d,
	{"figure1", "random", 2}:                   0xfcff124e12b29957,
	{"figure1", "heavy", 1}:                    0xc641736a6f46106d,
	{"figure1", "heavy", 2}:                    0x8ee82be10ef60c49,
	{"figure2a", "eager", 1}:                   0x4fc07d95a052a157,
	{"figure2a", "eager", 2}:                   0x4fc07d95a052a157,
	{"figure2a", "lazy", 1}:                    0x7c51fbb3892defbb,
	{"figure2a", "lazy", 2}:                    0x7c51fbb3892defbb,
	{"figure2a", "random", 1}:                  0xbdf4dc25981c7a1d,
	{"figure2a", "random", 2}:                  0xab2ad4a89173ce1d,
	{"figure2a", "heavy", 1}:                   0xa0f6047de97d98d7,
	{"figure2a", "heavy", 2}:                   0x4fc07d95a052a157,
	{"figure2b", "eager", 1}:                   0xbc34b3092514ce78,
	{"figure2b", "eager", 2}:                   0xbc34b3092514ce78,
	{"figure2b", "lazy", 1}:                    0xee62cadf4dd5a856,
	{"figure2b", "lazy", 2}:                    0xee62cadf4dd5a856,
	{"figure2b", "random", 1}:                  0xfda9501a31ab6ffb,
	{"figure2b", "random", 2}:                  0xc3dc19f6a36956b6,
	{"figure2b", "heavy", 1}:                   0xc348320ed433adf8,
	{"figure2b", "heavy", 2}:                   0xbc34b3092514ce78,
	{"figure3", "eager", 1}:                    0xed4be45d12a02331,
	{"figure3", "eager", 2}:                    0xed4be45d12a02331,
	{"figure3", "lazy", 1}:                     0x81ffc5eb4e94fbf1,
	{"figure3", "lazy", 2}:                     0x81ffc5eb4e94fbf1,
	{"figure3", "random", 1}:                   0x72e73d3097f9371f,
	{"figure3", "random", 2}:                   0x39d5c054cac855b1,
	{"figure3", "heavy", 1}:                    0xf7c9d97821bde4ab,
	{"figure3", "heavy", 2}:                    0xed4be45d12a02331,
	{"figure4", "eager", 1}:                    0xafcc85a69a9fb57a,
	{"figure4", "eager", 2}:                    0xafcc85a69a9fb57a,
	{"figure4", "lazy", 1}:                     0x7b7a63188e2f46e9,
	{"figure4", "lazy", 2}:                     0x7b7a63188e2f46e9,
	{"figure4", "random", 1}:                   0x336b6b89d776df69,
	{"figure4", "random", 2}:                   0x93b54440bc703864,
	{"figure4", "heavy", 1}:                    0x1297c66b337735f3,
	{"figure4", "heavy", 2}:                    0x71e8fefb8b8ae7d8,
	{"figure6", "eager", 1}:                    0x5adc1a96cb1c63e8,
	{"figure6", "eager", 2}:                    0x5adc1a96cb1c63e8,
	{"figure6", "lazy", 1}:                     0xf2c26a857c6f6855,
	{"figure6", "lazy", 2}:                     0xf2c26a857c6f6855,
	{"figure6", "random", 1}:                   0xaa42223c1dfb63c3,
	{"figure6", "random", 2}:                   0x4d1a19d6cfd9d97a,
	{"figure6", "heavy", 1}:                    0x5adc1a96cb1c63e8,
	{"figure6", "heavy", 2}:                    0x5adc1a96cb1c63e8,
	{"random-n10-e14-s3", "eager", 1}:          0xd1810df0658385fa,
	{"random-n10-e14-s3", "eager", 2}:          0xd1810df0658385fa,
	{"random-n10-e14-s3", "lazy", 1}:           0xbe6fc732587f315b,
	{"random-n10-e14-s3", "lazy", 2}:           0xbe6fc732587f315b,
	{"random-n10-e14-s3", "random", 1}:         0x97b15ea62ec803c0,
	{"random-n10-e14-s3", "random", 2}:         0x97e3e8200f332843,
	{"random-n10-e14-s3", "heavy", 1}:          0x47ef5051acabc9cd,
	{"random-n10-e14-s3", "heavy", 2}:          0xc8ba7896b7bd8840,
	{"random-n6-e6-s1", "eager", 1}:            0xc602048744cada2b,
	{"random-n6-e6-s1", "eager", 2}:            0xc602048744cada2b,
	{"random-n6-e6-s1", "lazy", 1}:             0xbf5d9a43842ead53,
	{"random-n6-e6-s1", "lazy", 2}:             0xbf5d9a43842ead53,
	{"random-n6-e6-s1", "random", 1}:           0x7c4064579ae886b7,
	{"random-n6-e6-s1", "random", 2}:           0x278cc95d85a3ec2d,
	{"random-n6-e6-s1", "heavy", 1}:            0x13926087d33afaf8,
	{"random-n6-e6-s1", "heavy", 2}:            0x3b610059f7d63204,
	{"random-n8-e10-s2", "eager", 1}:           0xaf5eb4ccc5766b62,
	{"random-n8-e10-s2", "eager", 2}:           0xaf5eb4ccc5766b62,
	{"random-n8-e10-s2", "lazy", 1}:            0x29f9a14768ad8309,
	{"random-n8-e10-s2", "lazy", 2}:            0x29f9a14768ad8309,
	{"random-n8-e10-s2", "random", 1}:          0x51d28f50442fd4f1,
	{"random-n8-e10-s2", "random", 2}:          0x2d1aaa513042572d,
	{"random-n8-e10-s2", "heavy", 1}:           0xd4be31d4ec7a3d04,
	{"random-n8-e10-s2", "heavy", 2}:           0xa9d0f667bd6b9b46,
	{"takeoff", "eager", 1}:                    0xf859291371c83e8e,
	{"takeoff", "eager", 2}:                    0xf859291371c83e8e,
	{"takeoff", "lazy", 1}:                     0xf8c99a575d1f8069,
	{"takeoff", "lazy", 2}:                     0xf8c99a575d1f8069,
	{"takeoff", "random", 1}:                   0x8cd97902203819fb,
	{"takeoff", "random", 2}:                   0x2fb2509cd2180c52,
	{"takeoff", "heavy", 1}:                    0x3021e1e0bd6dd18d,
	{"takeoff", "heavy", 2}:                    0xf859291371c83e8e,
	{"trains", "eager", 1}:                     0x5dfa7a97f24e32e3,
	{"trains", "eager", 2}:                     0x5dfa7a97f24e32e3,
	{"trains", "lazy", 1}:                      0x5d7abcf97f5f72af,
	{"trains", "lazy", 2}:                      0x5d7abcf97f5f72af,
	{"trains", "random", 1}:                    0x3a42e1d264161eaf,
	{"trains", "random", 2}:                    0x37921eef546df3f2,
	{"trains", "heavy", 1}:                     0xc30120eaf4de93fe,
	{"trains", "heavy", 2}:                     0xb7ff5bf4537fbf12,
	{"coord-heavy-m4", "eager", 1}:             0xa991a172beb8ed45,
	{"coord-heavy-m4", "eager", 2}:             0xa991a172beb8ed45,
	{"coord-heavy-m4", "lazy", 1}:              0xc0f6b3e8daf8f142,
	{"coord-heavy-m4", "lazy", 2}:              0xc0f6b3e8daf8f142,
	{"coord-heavy-m4", "random", 1}:            0x6d4192fb46c4c76,
	{"coord-heavy-m4", "random", 2}:            0xf1070024ba56305d,
	{"coord-heavy-m4", "heavy", 1}:             0xdae35cd1ff4f0741,
	{"coord-heavy-m4", "heavy", 2}:             0x4ac73c8f626f6ca5,
	{"coord-heavy-m16", "eager", 1}:            0x8a9d931da89748fc,
	{"coord-heavy-m16", "eager", 2}:            0x8a9d931da89748fc,
	{"coord-heavy-m16", "lazy", 1}:             0x1b6df12349003fb0,
	{"coord-heavy-m16", "lazy", 2}:             0x1b6df12349003fb0,
	{"coord-heavy-m16", "random", 1}:           0xc41331bc8ad140d4,
	{"coord-heavy-m16", "random", 2}:           0xa36ba595232ee2df,
	{"coord-heavy-m16", "heavy", 1}:            0x2d8b767976be2776,
	{"coord-heavy-m16", "heavy", 2}:            0xc08680594561395b,
	{"coord-faulty-m4-crash", "eager", 1}:      0x166b4915f3bf188d,
	{"coord-faulty-m4-crash", "eager", 2}:      0x3c02465c38baaa70,
	{"coord-faulty-m4-crash", "lazy", 1}:       0x8a97a5aa2cc29491,
	{"coord-faulty-m4-crash", "lazy", 2}:       0xe3bfc73122b5d110,
	{"coord-faulty-m4-crash", "random", 1}:     0xcbbc47dd91078261,
	{"coord-faulty-m4-crash", "random", 2}:     0xd6fc545de44ed81b,
	{"coord-faulty-m4-crash", "heavy", 1}:      0xefc383e1cac8e17f,
	{"coord-faulty-m4-crash", "heavy", 2}:      0xc8794e8d900e36ba,
	{"coord-faulty-m4-link", "eager", 1}:       0x84c96a1c95c0e3aa,
	{"coord-faulty-m4-link", "eager", 2}:       0x2212cfdba467674f,
	{"coord-faulty-m4-link", "lazy", 1}:        0x2eeedf627c568b1b,
	{"coord-faulty-m4-link", "lazy", 2}:        0xf5d95690b397d97a,
	{"coord-faulty-m4-link", "random", 1}:      0xf50a49a64c1c3e1a,
	{"coord-faulty-m4-link", "random", 2}:      0x95c343ea9c2ba170,
	{"coord-faulty-m4-link", "heavy", 1}:       0x83601cead9fcd769,
	{"coord-faulty-m4-link", "heavy", 2}:       0xfc6cdd008aeb45af,
	{"coord-faulty-m4-deadline", "eager", 1}:   0xbce4e548a5ff541b,
	{"coord-faulty-m4-deadline", "eager", 2}:   0x63f1a98df6d676f5,
	{"coord-faulty-m4-deadline", "lazy", 1}:    0x579b480ad9a1e8e2,
	{"coord-faulty-m4-deadline", "lazy", 2}:    0x1b73fc28777cd69a,
	{"coord-faulty-m4-deadline", "random", 1}:  0xec2364b50d611293,
	{"coord-faulty-m4-deadline", "random", 2}:  0x77ef2da6bc1ad7ce,
	{"coord-faulty-m4-deadline", "heavy", 1}:   0x80d47d9151cf8ec8,
	{"coord-faulty-m4-deadline", "heavy", 2}:   0xcad6dc84516de096,
	{"coord-faulty-m4-chaos", "eager", 1}:      0xaef13ab0d15effb5,
	{"coord-faulty-m4-chaos", "eager", 2}:      0xaaf2297b9d4d3ece,
	{"coord-faulty-m4-chaos", "lazy", 1}:       0x8ad6ad9ed5e667c3,
	{"coord-faulty-m4-chaos", "lazy", 2}:       0x7f9d1e1de2c1e25,
	{"coord-faulty-m4-chaos", "random", 1}:     0x916b60c0f30b6553,
	{"coord-faulty-m4-chaos", "random", 2}:     0x4c89038250013ee9,
	{"coord-faulty-m4-chaos", "heavy", 1}:      0xfd90ad4f14f8aafa,
	{"coord-faulty-m4-chaos", "heavy", 2}:      0x60a641a62aa153a0,
	{"coord-faulty-m16-crash", "eager", 1}:     0x34ebac54aeeb9f74,
	{"coord-faulty-m16-crash", "eager", 2}:     0x4ccd03fc289325af,
	{"coord-faulty-m16-crash", "lazy", 1}:      0x271d0fd994517994,
	{"coord-faulty-m16-crash", "lazy", 2}:      0x9145f9f278152872,
	{"coord-faulty-m16-crash", "random", 1}:    0x8f866f1fe962a9a4,
	{"coord-faulty-m16-crash", "random", 2}:    0x691e61bec92fb2cd,
	{"coord-faulty-m16-crash", "heavy", 1}:     0xa7684406123ce467,
	{"coord-faulty-m16-crash", "heavy", 2}:     0x666d064310b295de,
	{"coord-faulty-m16-link", "eager", 1}:      0x2031aa0ecfbca135,
	{"coord-faulty-m16-link", "eager", 2}:      0x162627242ca6ef4b,
	{"coord-faulty-m16-link", "lazy", 1}:       0xae76830724788706,
	{"coord-faulty-m16-link", "lazy", 2}:       0x8b091bcdd87a291b,
	{"coord-faulty-m16-link", "random", 1}:     0x33ade6ba22c88924,
	{"coord-faulty-m16-link", "random", 2}:     0x387025dcd6a8c5e1,
	{"coord-faulty-m16-link", "heavy", 1}:      0xe132db92a9356e94,
	{"coord-faulty-m16-link", "heavy", 2}:      0x7f25123a3ea1caa4,
	{"coord-faulty-m16-deadline", "eager", 1}:  0x96408da28b6c92c8,
	{"coord-faulty-m16-deadline", "eager", 2}:  0xd0887739b8295318,
	{"coord-faulty-m16-deadline", "lazy", 1}:   0x3e530ea1a6a16e09,
	{"coord-faulty-m16-deadline", "lazy", 2}:   0xb0a92fafecc37f77,
	{"coord-faulty-m16-deadline", "random", 1}: 0xfc44d6eed2afb2c8,
	{"coord-faulty-m16-deadline", "random", 2}: 0xcdc6eb18955f1c41,
	{"coord-faulty-m16-deadline", "heavy", 1}:  0xde2caede32c0e21c,
	{"coord-faulty-m16-deadline", "heavy", 2}:  0xe1d842531d416cb0,
	{"coord-faulty-m16-chaos", "eager", 1}:     0x9d07ae3adf06c7d8,
	{"coord-faulty-m16-chaos", "eager", 2}:     0xce8d617d8da379ab,
	{"coord-faulty-m16-chaos", "lazy", 1}:      0x80bbbbcbabf233ae,
	{"coord-faulty-m16-chaos", "lazy", 2}:      0x898faf4efbaff999,
	{"coord-faulty-m16-chaos", "random", 1}:    0x8edd726546ed02b7,
	{"coord-faulty-m16-chaos", "random", 2}:    0x8727cca8ead49efd,
	{"coord-faulty-m16-chaos", "heavy", 1}:     0x24a11fdde6d2a0de,
	{"coord-faulty-m16-chaos", "heavy", 2}:     0x7f9d4b3fcd5484b7,
}
