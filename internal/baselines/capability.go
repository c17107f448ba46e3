package baselines

// Capability mirrors the paper's Table 3: which systems implement which
// workloads.
type Capability struct {
	System   string
	LR       bool
	DeepWalk bool
	GBDT     bool
	LDA      bool
}

// CapabilityMatrix returns Table 3.
func CapabilityMatrix() []Capability {
	return []Capability{
		{System: "Spark MLlib", LR: true, DeepWalk: false, GBDT: true, LDA: true},
		{System: "DistML", LR: true, DeepWalk: false, GBDT: false, LDA: true},
		{System: "Glint", LR: false, DeepWalk: false, GBDT: false, LDA: true},
		{System: "Petuum", LR: true, DeepWalk: false, GBDT: false, LDA: true},
		{System: "XGBoost", LR: false, DeepWalk: false, GBDT: true, LDA: false},
		{System: "PS2", LR: true, DeepWalk: true, GBDT: true, LDA: true},
	}
}
