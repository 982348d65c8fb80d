package chain

import (
	"fmt"
	"slices"
	"sync"

	"waitornot/internal/keys"
)

// Config fixes a chain's consensus parameters.
type Config struct {
	// Gas is the execution price schedule.
	Gas GasSchedule
	// BlockGasLimit caps per-block gas. The paper configures Ethereum
	// "without block size and transaction size constraints"; the
	// default is effectively unlimited, and the throughput ablations
	// shrink it.
	BlockGasLimit uint64
	// GenesisDifficulty seeds PoW difficulty.
	GenesisDifficulty uint64
	// MinDifficulty floors retargeting.
	MinDifficulty uint64
	// TargetIntervalMs is the block interval the retarget rule aims at.
	TargetIntervalMs uint64
	// BlockReward is the subsidy credited to each block's miner.
	BlockReward uint64
}

// DefaultConfig returns the experiment chain parameters: difficulty low
// enough to mine promptly in-process, effectively unbounded block gas.
func DefaultConfig() Config {
	return Config{
		Gas:               DefaultGasSchedule(),
		BlockGasLimit:     1 << 62,
		GenesisDifficulty: 1 << 16,
		MinDifficulty:     1 << 12,
		TargetIntervalMs:  1000,
		BlockReward:       2_000_000_000,
	}
}

// Chain is a linear replica: the blocks from genesis to head and the
// head's post-state, with full validation and execution of every block
// it appends. AddBlock accepts only a block that extends the head, so
// there is no fork to choose between. It is safe for concurrent use.
type Chain struct {
	cfg  Config
	proc Processor

	mu     sync.RWMutex
	blocks []*Block // genesis..head
	state  *State   // post-state of head
}

// New creates a chain with the given genesis allocation. proc executes
// contract payloads (NopProcessor for a plain chain).
func New(cfg Config, alloc map[keys.Address]uint64, proc Processor) *Chain {
	if proc == nil {
		proc = NopProcessor{}
	}
	genesis := &Block{Header: Header{
		Difficulty: cfg.GenesisDifficulty,
		GasLimit:   cfg.BlockGasLimit,
		TxRoot:     MerkleRoot(nil),
	}}
	st := NewState()
	for a, v := range alloc {
		st.Account(a).Balance = v
	}
	return &Chain{
		cfg:    cfg,
		proc:   proc,
		blocks: []*Block{genesis},
		state:  st,
	}
}

// Config returns the chain's consensus parameters.
func (c *Chain) Config() Config { return c.cfg }

// Genesis returns the genesis block.
func (c *Chain) Genesis() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[0]
}

// Head returns the head block.
func (c *Chain) Head() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// Height returns the head's number.
func (c *Chain) Height() uint64 { return c.Head().Header.Number }

// StateCopy returns a deep copy of the head state (for mempool
// validation and contract reads).
func (c *Chain) StateCopy() *State {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state.Copy()
}

// CanonicalChain returns the blocks from genesis to head, inclusive.
func (c *Chain) CanonicalChain() []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.blocks)
}

// validateHeader checks a block's header against its parent.
func (c *Chain) validateHeader(b *Block, parent *Block) error {
	h := &b.Header
	if h.Number != parent.Header.Number+1 {
		return fmt.Errorf("%w: %d after %d", ErrBadNumber, h.Number, parent.Header.Number)
	}
	if h.Time < parent.Header.Time {
		return fmt.Errorf("%w: %d < parent %d", ErrBadTime, h.Time, parent.Header.Time)
	}
	want := NextDifficulty(&parent.Header, h.Time, c.cfg.TargetIntervalMs, c.cfg.MinDifficulty)
	if h.Difficulty != want {
		return fmt.Errorf("%w: got %d, want %d", ErrWrongDifficulty, h.Difficulty, want)
	}
	if !CheckPoW(h) {
		return ErrInvalidPoW
	}
	if h.TxRoot != MerkleRoot(b.Txs) {
		return ErrBadTxRoot
	}
	if h.GasLimit > c.cfg.BlockGasLimit {
		return fmt.Errorf("%w: header limit %d > config %d", ErrBlockGasExceed, h.GasLimit, c.cfg.BlockGasLimit)
	}
	return nil
}

// execute replays a block's transactions on top of the given state
// (mutated in place).
func (c *Chain) execute(b *Block, st *State) error {
	var gasUsed uint64
	for i, tx := range b.Txs {
		if err := tx.ValidateBasic(c.cfg.Gas); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
		rec, err := ApplyTx(c.cfg.Gas, st, tx, b.Header.Miner, c.proc)
		if err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
		gasUsed += rec.GasUsed
		if gasUsed > b.Header.GasLimit {
			return fmt.Errorf("%w: used %d > limit %d", ErrBlockGasExceed, gasUsed, b.Header.GasLimit)
		}
	}
	if gasUsed != b.Header.GasUsed {
		return fmt.Errorf("%w: executed %d, declared %d", ErrBadGasUsed, gasUsed, b.Header.GasUsed)
	}
	st.Account(b.Header.Miner).Balance += c.cfg.BlockReward
	return nil
}

// AddBlock appends a block that extends the head. The header is
// validated and the block executed on a copy of the head state; the
// chain changes only if both succeed. A repeat of the head is rejected
// with ErrKnownBlock, any other block whose parent is not the head with
// ErrUnknownParent.
func (c *Chain) AddBlock(b *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	head := c.blocks[len(c.blocks)-1]
	headHash := head.Hash()
	if b.Hash() == headHash {
		return ErrKnownBlock
	}
	if b.Header.ParentHash != headHash {
		return fmt.Errorf("%w: %s is not the head %s", ErrUnknownParent, b.Header.ParentHash.Short(), headHash.Short())
	}
	if err := c.validateHeader(b, head); err != nil {
		return err
	}
	st := c.state.Copy()
	if err := c.execute(b, st); err != nil {
		return err
	}
	c.blocks = append(c.blocks, b)
	c.state = st
	return nil
}
