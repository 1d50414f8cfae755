#include "branch/branch_unit.hh"

namespace chirp
{

BranchUnit::BranchUnit(const BranchUnitConfig &config)
    : config_(config), direction_(config.perceptron),
      btb_(config.btbEntries, config.btbAssoc),
      indirect_(config.indirectEntries)
{
}

Cycles
BranchUnit::onBranch(const TraceRecord &rec)
{
    ++branches_;
    bool mispredicted = false;

    switch (rec.cls) {
      case InstClass::CondBranch: {
        // The BTB is independent of the perceptron, so training the
        // direction first (with the prediction's own sum) is exact.
        const bool predicted_taken =
            direction_.predictAndUpdate(rec.pc, rec.taken);
        if (predicted_taken != rec.taken) {
            mispredicted = true;
        } else if (rec.taken) {
            // Direction right, but the front end still needs the
            // target from the BTB to redirect without a bubble.
            if (btb_.predict(rec.pc) != rec.target)
                mispredicted = true;
        }
        if (rec.taken)
            btb_.update(rec.pc, rec.target);
        break;
      }
      case InstClass::UncondDirect: {
        if (btb_.predict(rec.pc) != rec.target)
            mispredicted = true;
        btb_.update(rec.pc, rec.target);
        break;
      }
      case InstClass::UncondIndirect: {
        if (indirect_.predict(rec.pc) != rec.target)
            mispredicted = true;
        indirect_.update(rec.pc, rec.target);
        break;
      }
      default:
        return 0; // not a branch
    }

    if (mispredicted) {
        ++mispredicts_;
        return config_.mispredictPenalty;
    }
    return 0;
}

void
BranchUnit::reset()
{
    direction_.reset();
    btb_.reset();
    indirect_.reset();
    branches_ = 0;
    mispredicts_ = 0;
}

double
BranchUnit::mispredictRate()const
{
    if (branches_ == 0)
        return 0.0;
    return static_cast<double>(mispredicts_) * 1000.0 /
           static_cast<double>(branches_);
}

} // namespace chirp
