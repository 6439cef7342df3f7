package ml

import (
	"encoding/json"
	"fmt"
)

// Model serialization: the Authentication Server trains models in the
// cloud and downloads them to the smartphone (Section IV-A3), so the
// trained state of the classifiers must round-trip through a wire format.
// JSON is used because the message protocol in internal/transport is JSON.

// krrModelJSON is the wire form of a trained KRR model.
type krrModelJSON struct {
	Rho     float64     `json:"rho"`
	Kernel  string      `json:"kernel"`
	Gamma   float64     `json:"gamma,omitempty"`
	Primal  bool        `json:"primal"`
	Dim     int         `json:"dim"`
	W       []float64   `json:"w,omitempty"`
	Alpha   []float64   `json:"alpha,omitempty"`
	Support [][]float64 `json:"support,omitempty"`
}

// MarshalJSON implements json.Marshaler for trained KRR models.
func (k *KRR) MarshalJSON() ([]byte, error) {
	m := krrModelJSON{
		Rho:     k.Rho,
		Kernel:  k.kernel().Name(),
		Primal:  k.primal,
		Dim:     k.dim,
		W:       k.w,
		Alpha:   k.alpha,
		Support: k.support,
	}
	if rbf, ok := k.kernel().(RBFKernel); ok {
		m.Gamma = rbf.Gamma
	}
	return json.Marshal(m)
}

// UnmarshalJSON implements json.Unmarshaler.
func (k *KRR) UnmarshalJSON(data []byte) error {
	var m krrModelJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("ml: decode krr model: %w", err)
	}
	switch m.Kernel {
	case "identity", "":
		k.Kernel = IdentityKernel{}
	case "rbf":
		k.Kernel = RBFKernel{Gamma: m.Gamma}
	default:
		return fmt.Errorf("ml: unknown kernel %q", m.Kernel)
	}
	if m.Primal && len(m.W) != m.Dim {
		return fmt.Errorf("ml: primal model has %d weights for dim %d", len(m.W), m.Dim)
	}
	if !m.Primal && len(m.Alpha) != len(m.Support) {
		return fmt.Errorf("ml: dual model has %d coefficients for %d support vectors", len(m.Alpha), len(m.Support))
	}
	k.Rho = m.Rho
	k.primal = m.Primal
	k.dim = m.Dim
	k.w = m.W
	k.alpha = m.Alpha
	k.support = m.Support
	return nil
}

// treeNodeJSON is the wire form of one decision-tree node, flattened into
// an array with child indices so the encoding is non-recursive.
type treeNodeJSON struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"`
	Right     int     `json:"r,omitempty"`
	Label     string  `json:"lab,omitempty"`
}

type treeModelJSON struct {
	NDim   int            `json:"dim"`
	Labels []string       `json:"labels"`
	Nodes  []treeNodeJSON `json:"nodes"`
}

// MarshalJSON implements json.Marshaler for trained decision trees.
func (t *DecisionTree) MarshalJSON() ([]byte, error) {
	m := treeModelJSON{NDim: t.nDim, Labels: t.labels}
	var flatten func(n *treeNode) int
	flatten = func(n *treeNode) int {
		idx := len(m.Nodes)
		m.Nodes = append(m.Nodes, treeNodeJSON{Feature: -1})
		if n == nil {
			return idx
		}
		entry := treeNodeJSON{Feature: n.feature, Threshold: n.threshold, Label: n.label}
		if n.feature >= 0 {
			entry.Left = flatten(n.left)
			entry.Right = flatten(n.right)
		}
		m.Nodes[idx] = entry
		return idx
	}
	if t.root != nil {
		flatten(t.root)
	}
	return json.Marshal(m)
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *DecisionTree) UnmarshalJSON(data []byte) error {
	var m treeModelJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("ml: decode tree model: %w", err)
	}
	t.nDim = m.NDim
	t.labels = m.Labels
	if len(m.Nodes) == 0 {
		t.root = nil
		return nil
	}
	// Each node may be reached once: that rules out cycles, and shared
	// children, which would rebuild a subtree once per path to it.
	used := make([]bool, len(m.Nodes))
	var build func(idx int) (*treeNode, error)
	build = func(idx int) (*treeNode, error) {
		if idx < 0 || idx >= len(m.Nodes) {
			return nil, fmt.Errorf("ml: tree node index %d out of range", idx)
		}
		if used[idx] {
			return nil, fmt.Errorf("ml: tree node %d referenced twice", idx)
		}
		used[idx] = true
		e := m.Nodes[idx]
		n := &treeNode{feature: e.Feature, threshold: e.Threshold, label: e.Label}
		if e.Feature >= 0 {
			if e.Feature >= m.NDim {
				return nil, fmt.Errorf("ml: tree node %d splits on feature %d of a %d-feature model", idx, e.Feature, m.NDim)
			}
			var err error
			if n.left, err = build(e.Left); err != nil {
				return nil, err
			}
			if n.right, err = build(e.Right); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	root, err := build(0)
	if err != nil {
		return err
	}
	t.root = root
	return nil
}

type forestModelJSON struct {
	NDim   int             `json:"dim"`
	Labels []string        `json:"labels"`
	Trees  []*DecisionTree `json:"trees"`
}

// MarshalJSON implements json.Marshaler for trained random forests.
func (rf *RandomForest) MarshalJSON() ([]byte, error) {
	return json.Marshal(forestModelJSON{NDim: rf.nDim, Labels: rf.labels, Trees: rf.trees})
}

// UnmarshalJSON implements json.Unmarshaler.
func (rf *RandomForest) UnmarshalJSON(data []byte) error {
	var m forestModelJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("ml: decode forest model: %w", err)
	}
	rf.nDim = m.NDim
	rf.labels = m.Labels
	rf.trees = m.Trees
	return nil
}
