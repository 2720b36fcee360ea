// Planted violation [manifest]: 'NvmDevice' is on the built-in list of
// crash-relevant classes, so defining it without a stateManifest()
// must be flagged.

class NvmDevice
{
  private:
    int banks = 0;
};
