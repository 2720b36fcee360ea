// Planted violation [manifest]: 'pending' is a data member of a state
// class that stateManifest() never registers. Its neighbors are not
// data members (methods, statics, constants, types, friends) and must
// NOT be flagged; the nested struct's own member belongs to the
// nested type, not to FixtureUnregistered.

#include <map>
#include <vector>

class FixtureUnregistered
{
  public:
    using Table = std::map<int, std::vector<int>>;
    enum class Phase { Idle, Busy };

    explicit FixtureUnregistered(int n) : size_(n) {}
    virtual ~FixtureUnregistered() = default;
    int size() const { return size_; }
    persist::StateManifest stateManifest() const;

    static int instances;
    static constexpr int kLimit = 4;
    friend class FixtureFriend;

  private:
    struct Slot
    {
        int value = 0;
    };

    int size_;
    Slot slot;
    Phase phase = Phase::Idle;
    Table pending{}; // violation: never registered
};

persist::StateManifest
FixtureUnregistered::stateManifest() const
{
    persist::StateManifest m("FixtureUnregistered");
    DOLOS_MF_CONST(m, size_);
    DOLOS_MF_V(m, slot);
    DOLOS_MF_V(m, phase);
    return m;
}
