package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dbpsim/internal/obs"
	"dbpsim/internal/workload"
)

// goldenMix is the 8-core mix the byte-identity goldens run.
const goldenMix = "W8-M1"

const (
	goldenWarmup  = 2_000
	goldenMeasure = 12_000
	// goldenCkptQuanta places the pinned checkpoint: the first periodic one,
	// taken after this many scheduler quanta.
	goldenCkptQuanta = 6
)

// goldenConfig scales the quanta down so both repartitioning policies act
// several times within the short budgets.
func goldenConfig() Config {
	cfg := DefaultConfig(8)
	cfg.SchedQuantumCPUCycles = 1_000
	cfg.DBP.QuantumCPUCycles = 2_000
	cfg.MCP.QuantumCPUCycles = 2_000
	cfg.Seed = 11
	return cfg
}

// goldenRun holds the pinned sha256 of one policy pair's ledger bytes and of
// its checkpoint blob at goldenCkptQuanta quanta.
type goldenRun struct {
	ledger, checkpoint string
}

// goldenRuns pins every scheduler × partition pair the CLI accepts (the
// fixed-mask partition needs masks from a config file and is left out).
// Ledgers and checkpoint blobs are the byte-identity contract of the
// simulator: an optimisation must leave every hash here unchanged. A change
// that moves one changes simulated behaviour and needs a snapshot and ledger
// version bump, not a silent update.
var goldenRuns = map[string]goldenRun{
	"fcfs/none":        {"06a7e3c90492f0a29e55a965d72274357bd4e1afb69550b6447029e1dc6658d8", "39f18ef46a11550a086815b90de17387be22a25a5ce8c3420f720afe4555ed8c"},
	"fcfs/equal":       {"35efdec956309b1af31fe127e009cc3a27282974e7c33096a50e1cfe5fda4375", "37ec838cb782760dbcf1ff05752657beedbebca5548a8969c150607f65a04066"},
	"fcfs/dbp":         {"07dc411a630f3c6cda9b828f7a94b799f4eb2c322d22d7b6e46670e766211242", "f994b295d4de0bb7b7c10b5e4c55918a8fd5cf68945f32019da3210335c8973a"},
	"fcfs/mcp":         {"0c3ef2b0f38cfb2d4ba10a42ad4fe0cae57122a847017d1d3846e2b5f3d6fa12", "755fcda9db849598497ff2afe45e421072925c8df177b2be26175a57e7e5e9d4"},
	"frfcfs/none":      {"21a4e00294a61ab6699bf5b661dacf6f9ca027c79fe3eee4c8e3681654a0fc7b", "dce3e73104f454e725660703a52968ecea86ca5fe55fe6c9036443877c5af3bd"},
	"frfcfs/equal":     {"3b9eab48eb95c0515e61bde2c5ad662978a94d9ae75c5dabb0a42610569b66df", "045db0a51a3ccc3a994736875daacb4032400010ae56e79dfbb93cc83a61d39d"},
	"frfcfs/dbp":       {"93a6c229390ce41eff2e4bf777062e5588a4e9384d82c026f6170c8de7b42484", "f9c7c8c5c7ee44a2e9a83a0643b822e20ae2db969fbe7695ed0c6dde36e929e4"},
	"frfcfs/mcp":       {"ad0f99bedd52809b127122d630a83b3c59f3c08ca56e0497c69d94dc1c2bca68", "75f95ed5024498a75662189bc389f4ca101ad3b75169619ad5780a9252ba2d19"},
	"tcm/none":         {"a9e5e37136453e63a14a820855fe2a6d2daa457118e0a57e42bbf6cab4f45152", "b1a865dedb267e51ef2944f1f85df5461f451ae325f0db39156c8151229d3914"},
	"tcm/equal":        {"83ea575e6e3967012fa2305fa3cec8c4f9392488f22d9f1cf952589276acd9f9", "56dc008ec0a5eea9c188be6e93d0f12597ea62a9d2e2d530075df49c3376ef89"},
	"tcm/dbp":          {"00ede4948883a8be79ec8cf8ef32f65f696d9f746c19dadb5e19fd85cfdd8231", "f2f9edd385be534b84424ed58f88af529c0079146f580e539e6be810078fc146"},
	"tcm/mcp":          {"ba615836844f43e6c252e72a5f979abd9f785ff17185138646fd259a0dab890f", "c548e0ccdb72c85d621785e74324499ed8d1a9e7dec556c8efbe9873c7fc8c7d"},
	"atlas/none":       {"d6730d0492cd832afc02c525e03dc0efd4b8062afca6742d4875cf67d2716aa4", "2a4746b17872d206a8b0656f6bc09c99b5fd30fcb534d7d53cd646553cb52680"},
	"atlas/equal":      {"a02e0b6b6b547b865a14150bb3cd4df5a9329a11a13b8f061485a99dd7f12e0d", "4421b7504527c3f48bc1e8a1ebb09281ba12479d3646ee9fb92b17de7bd49766"},
	"atlas/dbp":        {"0b9e7b4566450ab3583f0ab6267a6c185446cc0ed8528dc2ed7d9f28db7cf8f1", "a5641a421d68bc7e1b66cc5ad04a9ccdbfcc02904dceebde17bfcd027f0168c0"},
	"atlas/mcp":        {"08d6279757b3bf169dbcf28bfc01094efb1d327f876a25068d4384edefe680cb", "5988005641077f44b99ab5b8610538d953f3e77d616cc83e1b6a840c617ca802"},
	"parbs/none":       {"d72dfc064a82ce46ebcae6968238d08b868fe2abd6d192c46516f750d0ca211e", "109e84c56e2bc2974244076904a9c7386a2d025a38a8df7291376bf1f57dfbf1"},
	"parbs/equal":      {"0a5403a679475be17dcf6b59b9d57cf32f14dedd812f375cde5c3a08d07beb08", "5084d18ce94887e591161d009f40d9702accf628a3be9e7e2d36bf083cbe3947"},
	"parbs/dbp":        {"4d8fc76f30c133a02bfac85578c1d4f3a68ab60a25e7006b485e22f2f13ded9f", "beb42a89505d7fdefbe2afb5460f62358052b41a8eaf8ae6f0e76f2266b23925"},
	"parbs/mcp":        {"216f2a0f98c321ce7d3bbcdb3bfe4d1a66cbec92fa9072c400db74b6428948a8", "d2ab7afdc7176830335739f710452065b853bd466b06bba99bd21f555c7353ea"},
	"frfcfs-cap/none":  {"02800e61bce5ec2ca1df8c0ac36016927145f9ab7fa249d80584a147378411d2", "34a8d74ed680ae4dad2db85382a4e625af30e9695d2fb163829e78978e35d35f"},
	"frfcfs-cap/equal": {"0acbc4272067ffeaadcf0ff4cd3b6d79d25cf4431271f0aa2ad0fa622e581616", "34b7ffebc850bc317f5ec5c3fec21342e16310cf7e8feb17e1a0317821621457"},
	"frfcfs-cap/dbp":   {"c24816a227d0af7ddd0232998b72167f73a87c62339d78321cf863bcb918fa5b", "68bfce2905f7e9a094957f0eb071f85e974afd440b2b71202918bf678f0451ad"},
	"frfcfs-cap/mcp":   {"18686a588999394300b3e2e988a30efa8866e81d3b8d1576ea897ea08ab20d63", "46ea83706f1d32cccad19ea8c2de474b737b88375fa73ccb0c7c4a3660648932"},
	"bliss/none":       {"08f6bbfce62bd8ace1d9ce3b0320fd50e68285cde049d2e85d95e6a35a35b998", "df159e8d75529df80c5d4ec6c9487b8491298ac1933923bdbae4c80eebc57648"},
	"bliss/equal":      {"8405700c0e5335df0347286bc9e57644650c8605c8b6da308534ea7cd309745c", "ea6fa06abf5c2e891086b9009df6c3159a9e0e6564d579afe102287d5fa20067"},
	"bliss/dbp":        {"d5aef419b615be414087af692befe0ac367a43df18869a307ca2a15ee6d65e20", "062ebef847831a37ea611fecd110498e4e9b16fd0f2e01069f3902213009f6b7"},
	"bliss/mcp":        {"9f121e15a03c56b9fa459456bd5afa951f2079ce053c12dfca30630310955282", "2e851745a8b2269dc696f4bcbaacc476e86bbae716d73cdcacd0bc7085a76815"},
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenLedgersAndCheckpoints runs every pinned policy pair once with a
// recorder attached and periodic checkpoints on, and compares the ledger and
// the first checkpoint against the pins.
func TestGoldenLedgersAndCheckpoints(t *testing.T) {
	mix, ok := workload.MixByName(goldenMix)
	if !ok {
		t.Fatalf("mix %s not found", goldenMix)
	}
	scheds := []SchedulerKind{SchedFCFS, SchedFRFCFS, SchedTCM, SchedATLAS, SchedPARBS, SchedFRFCFSCap, SchedBLISS}
	parts := []PartitionKind{PartNone, PartEqual, PartDBP, PartMCP}
	if len(goldenRuns) != len(scheds)*len(parts) {
		t.Fatalf("%d pinned pairs, want %d", len(goldenRuns), len(scheds)*len(parts))
	}
	cfg := goldenConfig()
	// One experiment for all pairs: the alone baselines are shared through
	// its cache, as in a sweep.
	exp := NewExperiment(cfg, goldenWarmup, goldenMeasure)
	for _, sc := range scheds {
		for _, pt := range parts {
			sc, pt := sc, pt
			name := string(sc) + "/" + string(pt)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				want, ok := goldenRuns[name]
				if !ok {
					t.Fatalf("no pin for %s", name)
				}
				rec, err := obs.NewRecorder(obs.Options{NumThreads: mix.Cores(), NumBanks: cfg.Geometry.NumColors()})
				if err != nil {
					t.Fatal(err)
				}
				var blob []byte
				ck := &Checkpointer{
					Interval: goldenCkptQuanta * cfg.SchedQuantumCPUCycles,
					Sink: func(b []byte, cycle uint64) {
						if blob == nil {
							blob = append([]byte(nil), b...)
						}
					},
				}
				run, err := exp.RunMixCheckpointedContext(context.Background(), mix, sc, pt, rec, ck)
				if err != nil {
					t.Fatal(err)
				}
				if blob == nil {
					t.Fatal("no checkpoint emitted")
				}
				ledger, err := BuildLedger("golden", exp.Base, goldenWarmup, goldenMeasure, run, rec)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := obs.MarshalLedger(ledger)
				if err != nil {
					t.Fatal(err)
				}
				got := goldenRun{ledger: sha256Hex(raw), checkpoint: sha256Hex(blob)}
				if got != want {
					t.Errorf("pinned {%q, %q}, got {%q, %q}", want.ledger, want.checkpoint, got.ledger, got.checkpoint)
				}
			})
		}
	}
}
